"""Reference oracles the tests check the package against.

None of these is reached by a command or a run: the scalar property
battery of acceptance criterion 01 with the minimal section it compares
against, the smooth part of each well written out per kind, the quadratic
lower-bound certificate, the config writer, a reader for the ASCII mesh
format that ``bscch mesh`` writes, the law-of-cosines mesh statistics,
the constant pair of a pair's means, the scipy forms of the package's
sparse operators, and the numeric output oracle of
``scripts/output_digest.py``.
"""

import functools
import importlib.util
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from bscch.assembly import CaseSpace, Csr
from bscch.errors import InvalidArgument
from bscch.mesh import FORMAT_HEADER, TriMesh
from bscch.potentials import _as_eps, moreau_envelope, yosida


def minimal_section(pot, r):
    """f1_circle(r), the minimal-modulus element of the subdifferential of F1 of ``pot``."""
    r = np.asarray(r, dtype=float)
    if pot.kind == "reg":
        return 4.0 * pot.c * r**3
    if pot.kind == "log":
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(np.abs(r) < 1.0, pot.theta * np.arctanh(np.clip(r, -1, 1)),
                            np.inf * np.sign(r))
    return np.where(np.abs(r) <= 1.0, 0.0, np.nan)


def smooth_part(pot, r):
    """(F2(r), F2'(r)) of ``pot``, the smooth concave part written out per kind."""
    if pot.kind == "reg":
        return -2.0 * pot.c * r**2, -4.0 * pot.c * r
    if pot.kind == "log":
        return -0.5 * pot.theta_c * r**2, -pot.theta_c * r
    return 1.0 - r**2, -2.0 * r


def regularized_lower_bound(pot, eps):
    """A closed-form lower bound over R of F1_eps + F2, for eps * pot.concavity < 1.

    reg: c s^4 >= 2 a c s^2 - c a^2 for every a, and the envelope of k s^2 is
    k r^2 / (1 + 2 eps k); a = 1 / (1 - 4 eps c) cancels -2c r^2 and leaves
    -c a^2.  log and obst: F1 >= 0 on [-1, 1] and +inf outside, so F1_eps(r) >=
    (|r| - 1)_+^2 / (2 eps); with F2 = F2(0) - kappa r^2 / 2 the minimum over r
    is F2(0) - kappa / (2 (1 - eps kappa)), at |r| = 1 / (1 - eps kappa).
    """
    kappa, _ = pot.concavity
    if pot.kind == "reg":
        return -pot.c / (1.0 - eps * kappa) ** 2
    return float(pot.smooth_value(0.0)) - kappa / (2.0 * (1.0 - eps * kappa))


def quadratic_lower_bound_certificate(pot, grid=None, max_level=40):
    """Constructive certificate for the quadratic lower bound.

    Finds the largest eps = 2^-k such that F_eps(r) >= r^2 - C on a wide
    grid, with F_eps the Moreau envelope of the convex part plus the smooth
    part and C from a kind-specific closed-form bound.  Returns
    ``(eps_star, C)``.
    """
    kind = pot.kind
    if kind == "reg":
        # +1 slack: the envelope lies strictly below the quartic, so the
        # exact touching constant (2c+1)^2/(4c) would never certify
        c = pot.c
        C = (2.0 * c + 1.0) ** 2 / (4.0 * c) + 1.0
    elif kind == "log":
        C = 2.0 + pot.theta_c
    else:
        C = 2.0
    if grid is None:
        grid = np.linspace(-20.0, 20.0, 4001)
    for k in range(1, max_level + 1):
        e = 2.0**-k
        fe = moreau_envelope(pot, e, grid) + pot.smooth_value(grid)
        if np.all(fe >= grid**2 - C):
            return e, C
    raise InvalidArgument("no admissible regularization level found")


@dataclass
class PropertyReport:
    """Outcome of the scalar property battery; failures list (name, eps, r)."""

    passed: bool
    failures: list = field(default_factory=list)

    def record(self, ok_mask, name, eps, grid):
        bad = np.atleast_1d(~np.asarray(ok_mask))
        if bad.any():
            self.passed = False
            for r in np.atleast_1d(grid)[bad]:
                self.failures.append((name, eps, float(r)))


def verify_scalar_properties(pot, eps_list, grid):
    """Check the pointwise bounds and monotonicity of the regularization.

    Verified on the grid, for each eps: |f1_eps| <= |f1_circle| (where the
    minimal section is defined), |f1_eps| <= |r|/eps, monotonicity of
    f1_eps, the divided-difference Lipschitz bound 1/eps, envelope
    monotonicity in eps, and convergence f1_eps -> f1_circle along eps
    halvings on interior points.
    """
    grid = np.sort(np.asarray(grid, dtype=float))
    report = PropertyReport(passed=True)

    lo, hi = pot.prime_domain
    interior = (grid > lo) & (grid < hi)
    in_dom = interior if pot.prime_domain_open else (grid >= lo) & (grid <= hi)
    f_min = np.where(in_dom, minimal_section(pot, np.clip(grid, lo, hi)), np.inf)

    prev_env = None
    prev_gap = None
    for e in sorted(map(_as_eps, eps_list), reverse=True):
        val, _, _ = yosida(pot, e, grid)
        report.record(np.abs(val) <= np.abs(f_min) * (1 + 1e-10) + 1e-12, "bound_vs_minimal_section", e, grid)
        report.record(np.abs(val) <= np.abs(grid) / e * (1 + 1e-10) + 1e-12, "bound_vs_linear", e, grid)
        report.record(np.diff(val) >= -1e-12, "monotone", e, grid[1:])
        dg = np.diff(grid)
        with np.errstate(divide="ignore", invalid="ignore"):
            dd = np.where(dg > 0, np.diff(val) / dg, 0.0)
        report.record(dd <= (1.0 / e) * (1 + 1e-10), "lipschitz", e, grid[1:])

        env = moreau_envelope(pot, e, grid)
        if prev_env is not None:
            # eps decreasing along the loop => envelope nondecreasing
            report.record(env >= prev_env - 1e-12, "envelope_monotone_in_eps", e, grid)
        prev_env = env

        gap = np.where(interior, np.abs(val - np.where(interior, f_min, 0.0)), 0.0)
        if prev_gap is not None:
            report.record(gap <= prev_gap + 1e-12, "convergence_to_minimal_section", e, grid)
        prev_gap = gap

    return report


def serialize_config(cfg: dict) -> str:
    """The config text that ``bscch.config.parse_config`` reads back as ``cfg``."""
    return "".join(f"{k} = {v}\n" for k, v in cfg.items())


def read_mesh(path) -> TriMesh:
    """The mesh in a file written by ``bscch.mesh.write_mesh``."""
    lines = Path(path).read_text(encoding="ascii").splitlines()
    assert lines[0] == FORMAT_HEADER
    nv, nt, nb = (int(tok) for tok in lines[1].split())
    rows = [line.split() for line in lines[2:]]
    assert len(rows) == nv + nt + nb
    return TriMesh(vertices=np.array(rows[:nv], dtype=float),
                   triangles=np.array(rows[nv:nv + nt], dtype=np.int64),
                   boundary_loop=np.array(rows[nv + nt:], dtype=np.int64).ravel())


def mesh_stats_reference(mesh: TriMesh):
    """(h_max, min_angle) of ``mesh`` from its vertex coordinates: the longest edge and
    the smallest corner angle in degrees, by the law of cosines."""
    p = mesh.vertices[mesh.triangles]
    e0 = np.linalg.norm(p[:, 1] - p[:, 0], axis=1)
    e1 = np.linalg.norm(p[:, 2] - p[:, 1], axis=1)
    e2 = np.linalg.norm(p[:, 0] - p[:, 2], axis=1)
    h_max = float(max(e0.max(), e1.max(), e2.max()))

    def corner(a, b, c):
        cosang = (b**2 + c**2 - a**2) / (2 * b * c)
        return np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))

    ang = np.minimum(np.minimum(corner(e0, e1, e2), corner(e1, e2, e0)), corner(e2, e0, e1))
    return h_max, float(ang.min())


def means_reference(forms, bulk, surf, weight, separate):
    """The constant pair (c_b, c_s) carrying the means of (bulk, surf) by the area and
    perimeter: the separate means, or m * (weight, 1) for the ``weight``-combined mean m."""
    if separate:
        return (forms.lump_bulk @ bulk) / forms.area, (forms.lump_surf @ surf) / forms.perimeter
    m = ((weight * forms.lump_bulk) @ bulk + forms.lump_surf @ surf) / (
        weight**2 * forms.area + forms.perimeter)
    return weight * m, m


def as_scipy(A: Csr) -> sp.csr_matrix:
    """The scipy CSR matrix of a package operator, on copies of its arrays."""
    return sp.csr_matrix((A.data.copy(), A.indices.copy(), A.indptr.copy()), shape=A.shape)


def prolongation(space: CaseSpace) -> sp.csr_matrix:
    """The case space's prolongation P: full row i is ``scale[i]`` times reduced slot ``col[i]``."""
    size = len(space.col)
    return sp.csr_matrix((space.scale, space.col, np.arange(size + 1)),
                         shape=(size, len(space.idx)))


def triple_product(test: CaseSpace, op, trial: CaseSpace) -> sp.csr_matrix:
    """P_test^T op P_trial of the scipy matrix ``op``, or ``op`` when both spaces are full."""
    if len(test.idx) == len(test.col) and len(trial.idx) == len(trial.col):
        return op
    return (prolongation(test).T @ op @ prolongation(trial)).tocsr()


@functools.cache
def output_digest():
    """``scripts/output_digest.py`` as a module: its cases, numbers and compare mode,
    and the bounds they state."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"
    spec = importlib.util.spec_from_file_location("output_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
