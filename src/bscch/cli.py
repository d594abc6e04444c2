"""Command-line interface.

Exit codes: 0 success, 1 validation/usage error, 2 solver failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .config import _extended, load_run_config
from .diagnostics import continuous_dependence_experiment, limit_study
from .elliptic import estimate_poincare_constant, manufactured_errors
from .errors import BscchError, SolverFailure, StepFailure, ValidationError
from .mesh import generate_disk_mesh, mesh_stats, write_mesh
from .output import write_series, write_snapshots
from .potentials import check_domination, make_potential
from .stepper import run as run_simulation


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _build_parser():
    p = _Parser(prog="bscch", description="bulk-surface phase-field simulator")
    sub = p.add_subparsers(dest="command", required=True)

    m = sub.add_parser("mesh", help="generate a disk mesh file")
    m.add_argument("--nb", type=int, default=64)
    m.add_argument("--nr", type=int, default=16)
    m.add_argument("--out", required=True)

    r = sub.add_parser("run", help="run a simulation from a config file")
    r.add_argument("--config", required=True)

    pc = sub.add_parser("potential-check", help="check a potential pairing")
    pc.add_argument("--pair", required=True, metavar="BULK,SURF")
    pc.add_argument("--alpha", type=float, required=True)

    mm = sub.add_parser("elliptic-mms", help="manufactured-solution convergence study")
    mm.add_argument("--K", type=_extended, required=True)
    mm.add_argument("--levels", type=int, default=3)

    po = sub.add_parser("poincare", help="estimate the bulk-surface Poincare constant")
    po.add_argument("--K", type=_extended, required=True)
    po.add_argument("--alpha", type=float, default=1.0)
    po.add_argument("--beta", type=float, default=1.0)
    po.add_argument("--nb", type=int, default=64)
    po.add_argument("--nr", type=int, default=16)

    ls = sub.add_parser("limit-study", help="coupling/regularization limit trends")
    ls.add_argument("--config", required=True)
    ls.add_argument("--parameter", required=True,
                    choices=["L->0", "L->inf", "K->0", "K->inf", "eps->0"])
    ls.add_argument("--schedule", required=True, metavar="V1,V2,...")

    cd = sub.add_parser("cont-dep", help="continuous dependence experiment")
    cd.add_argument("--config", required=True)
    cd.add_argument("--amplitudes", default="0,1e-3,2e-3", metavar="A1,A2,...")
    return p


def _cmd_mesh(args):
    mesh = generate_disk_mesh(args.nb, args.nr)
    write_mesh(mesh, args.out)
    st = mesh_stats(mesh)
    print(f"wrote {args.out}: {mesh.n_vertices} vertices, "
          f"{len(mesh.triangles)} triangles, h_max={st.h_max:.6g}, "
          f"min_angle={st.min_angle:.4g} deg")
    return 0


def _cmd_run(args):
    config, resolved = load_run_config(args.config)
    keep = resolved["output.vtk"]
    result = run_simulation(config if keep
                            else dataclasses.replace(config, keep_states=False))
    outdir = resolved["output.dir"]
    os.makedirs(outdir, exist_ok=True)
    write_series(os.path.join(outdir, "series.csv"), result.records)
    if keep:
        write_snapshots(outdir, result.mesh, result.states)
    last = result.records[-1]
    print(f"completed t={last.t:.6g}, energy={last.energy:.9g}, "
          f"records={len(result.records)} -> {outdir}/series.csv")
    return 0


def _cmd_potential_check(args):
    parts = [s.strip() for s in args.pair.split(",")]
    if len(parts) != 2:
        raise ValidationError("--pair expects BULK,SURF")
    bulk, surf = (make_potential(k) for k in parts)
    grid = np.linspace(-0.999, 0.999, 999)
    rep = check_domination(bulk.convex, surf.convex, args.alpha, grid,
                           eps_list=[0.1, 0.05])
    if rep.admissible:
        print(f"admissible: ({parts[0]},{parts[1]}) alpha={args.alpha:g} "
              f"kappa1={rep.kappa1:g} kappa2={rep.kappa2:g}")
        return 0
    print(rep.reason, file=sys.stderr)
    return 1


def _cmd_elliptic_mms(args):
    sizes = [(32 * 2**k, 8 * 2**k) for k in range(args.levels)]
    errors = manufactured_errors(args.K, sizes)
    for (nb, nr), e in zip(sizes, errors):
        print(f"mesh ({nb},{nr}): L2 error {e:.6e}")
    for e1, e2 in zip(errors, errors[1:]):
        print(f"ratio {e1 / e2:.3f}")
    return 0


def _cmd_poincare(args):
    mesh = generate_disk_mesh(args.nb, args.nr)
    cp = estimate_poincare_constant(mesh, args.K, args.alpha, args.beta)
    print(f"C_P = {cp:.9g}")
    return 0


def _cmd_limit_study(args):
    config, _ = load_run_config(args.config)
    schedule = [float(v) for v in args.schedule.split(",") if v.strip()]
    rep = limit_study(config, args.parameter, schedule)
    for v, obs in zip(rep.schedule, rep.values):
        print(f"{args.parameter}  value={v:g}  observable={obs:.9e}")
    if rep.extra:
        for v, d in zip(rep.schedule, rep.extra):
            print(f"{args.parameter}  value={v:g}  mass_drift={d:.9e}")
    print(f"decreasing: {rep.decreasing}")
    return 0


def _cmd_cont_dep(args):
    config, _ = load_run_config(args.config)
    amps = [float(v) for v in args.amplitudes.split(",") if v.strip()]
    rep = continuous_dependence_experiment(config, amps)
    for a, d in zip(rep.amplitudes, rep.max_distances):
        print(f"amplitude={a:g}  max_dual_distance={d:.9e}")
    ratio = rep.first_order_ratio
    print(f"zero_is_zero: {rep.zero_is_zero}  monotone: {rep.monotone}  "
          f"first_order_ratio: {'None' if ratio is None else f'{ratio:.9e}'}")
    return 0


_COMMANDS = {
    "mesh": _cmd_mesh,
    "run": _cmd_run,
    "potential-check": _cmd_potential_check,
    "elliptic-mms": _cmd_elliptic_mms,
    "poincare": _cmd_poincare,
    "limit-study": _cmd_limit_study,
    "cont-dep": _cmd_cont_dep,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (SolverFailure, StepFailure) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except BscchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def cli_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    cli_entry()
