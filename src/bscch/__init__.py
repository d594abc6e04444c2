"""Desk-scale simulator for a coupled bulk-surface phase-field system.

Bulk Cahn-Hilliard dynamics on the unit disk coupled to a surface
Cahn-Hilliard equation on its boundary through two extended parameters
(K for the phase fields, L for the chemical potentials) spanning
Dirichlet, Robin, and Neumann couplings, with singular potentials handled
by Moreau-Yosida regularization and a conservative, energy-stable
convex-splitting time integrator.
"""

import os

# Before any submodule imports numpy: every BLAS call of the package is level 1-2 on
# vectors of a few thousand entries, so OpenBLAS worker pools (numpy's, and the one of
# the OpenBLAS that the SuperLU extension links) only compete with the main thread.  A
# value the caller set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .assembly import CouplingParams, Mobility, VelocityField, assemble_core, sigma
from .diagnostics import (
    CDReport,
    DiagnosticsRecord,
    LimitReport,
    continuous_dependence_experiment,
    limit_study,
)
from .elliptic import (
    InverseCoupledOperator,
    estimate_poincare_constant,
    manufactured_errors,
    solve_coupled_poisson,
)
from .errors import (
    BscchError,
    InvalidArgument,
    SolverFailure,
    StepFailure,
    ValidationError,
)
from .mesh import TriMesh, generate_disk_mesh, mesh_stats, write_mesh
from .potentials import (
    Potential,
    check_domination,
    moreau_envelope,
    resolvent,
    yosida,
)
from .stepper import (
    InitialDataSpec,
    NewtonParams,
    RunConfig,
    RunParams,
    RunResult,
    State,
    Stepper,
    run,
)

__version__ = "0.1.0"
