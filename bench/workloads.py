"""The benchmark's workloads: one `bscch` command line and config each.

Every workload goes through the public entry point `bscch.cli.main`. The
config written for a run sets `init.seed` from the benchmark's `--seed` and
points `output.dir` into the benchmark's own work area; the program sees
nothing else of the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str            # bscch subcommand
    config: dict            # key = value pairs; seed and output dir are added per run
    extra_args: tuple = ()  # arguments after `--config FILE`
    ensemble: bool = False  # set-up also builds the inverse coupled operator
    snapshots: int = 0      # VTK snapshot pairs a run must write (0: none)
    checks: tuple = ()      # names of the checks in checks.check_invocation


_LOG_PAIR = {
    "potential.bulk": "log",
    "potential.surf": "log",
    "yosida.eps": "0.05",
}

# 30 steps of the canonical 64x16 spinodal scenario: long enough that the
# Newton linear algebra dominates, short enough for several fresh-process
# samples per measured run.
SPINODAL_ROBIN = Workload(
    name="spinodal-robin",
    why=("canonical K=L=1 log/log spinodal run; fixed operators, so two fresh "
         "splu per step (about 70% of wall time) dominate and factor reuse shows"),
    command="run",
    config={
        "mesh.nb": "64", "mesh.nr": "16",
        "model.K": "1", "model.L": "1", "model.alpha": "1", "model.beta": "1",
        **_LOG_PAIR,
        "mobility.bulk.kind": "constant", "mobility.surf.kind": "constant",
        "time.tau": "1e-4", "time.T": "3e-3",
        "init.mode": "random", "init.mean": "0", "init.amplitude": "0.2",
        "output.every": "10", "output.vtk": "false",
    },
    checks=("mass", "energy", "separation"),
)

SPINODAL_DIRICHLET_MOBILE = Workload(
    name="spinodal-dirichlet-mobile",
    why=("K=L=0 with degenerate mobility and convection; operators change every "
         "step, runs the Dirichlet prolongations and the VTK writer"),
    command="run",
    config={
        "mesh.nb": "64", "mesh.nr": "16",
        "model.K": "0", "model.L": "0", "model.alpha": "1", "model.beta": "1",
        **_LOG_PAIR,
        "mobility.bulk.kind": "degenerate", "mobility.bulk.m0": "1", "mobility.bulk.m1": "1",
        "mobility.surf.kind": "degenerate", "mobility.surf.m0": "1", "mobility.surf.m1": "1",
        "velocity.bulk": "rigid_rotation", "velocity.omega": "1",
        "velocity.surf": "rotation", "velocity.speed": "1",
        "time.tau": "1e-4", "time.T": "3e-3",
        "init.mode": "random", "init.mean": "0", "init.amplitude": "0.2",
        "output.every": "5", "output.vtk": "true",
    },
    snapshots=7,
    checks=("mass", "trace"),
)

# Criterion 09's scenario (32x8, tau=2e-4, 20 steps) with random initial data.
CONT_DEP_ENSEMBLE = Workload(
    name="cont-dep-ensemble",
    why=("four small 32x8 runs sharing mesh and (K, L) plus a dual norm per state; "
         "per-call overhead dominates and only this runs the elliptic layer"),
    command="cont-dep",
    config={
        "mesh.nb": "32", "mesh.nr": "8",
        "model.K": "1", "model.L": "1", "model.alpha": "1", "model.beta": "1",
        **_LOG_PAIR,
        "mobility.bulk.kind": "constant", "mobility.surf.kind": "constant",
        "velocity.bulk": "rigid_rotation", "velocity.omega": "1",
        "time.tau": "2e-4", "time.T": "4e-3",
        "init.mode": "random", "init.mean": "0", "init.amplitude": "0.2",
        "output.every": "1", "output.vtk": "false",
    },
    extra_args=("--amplitudes", "0,1e-3,2e-3"),
    ensemble=True,
    checks=("cont_dep",),
)

WORKLOADS = {w.name: w for w in (SPINODAL_ROBIN, SPINODAL_DIRICHLET_MOBILE, CONT_DEP_ENSEMBLE)}


def config_text(workload: Workload, seed: int, output_dir: str) -> str:
    """The config file a run of ``workload`` hands to the program."""
    cfg = dict(workload.config)
    cfg["init.seed"] = str(seed)
    cfg["output.dir"] = output_dir
    return "".join(f"{k} = {v}\n" for k, v in cfg.items())


def argv(workload: Workload, config_path: str) -> list:
    """Command line passed to `bscch.cli.main`."""
    return [workload.command, "--config", config_path, *workload.extra_args]
