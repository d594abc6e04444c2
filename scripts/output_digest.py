#!/usr/bin/env python3
"""Digest of the program's outputs on a fixed list of small CLI cases.

    python3 scripts/output_digest.py > digest.txt
    python3 scripts/output_digest.py --numbers numbers.jsonl
    python3 scripts/output_digest.py --compare parent.jsonl numbers.jsonl

Each case calls `bscch.cli.main` inside its own temporary directory and
prints one line ``name rc sha256``. The hash covers the case's stdout and
stderr and every file it wrote (relative path and bytes, in sorted order).
Running the script in two checkouts and diffing the two outputs checks that
they produce the same bytes. Uses only the standard library, numpy and the
`bscch` package of this checkout.

A change that moves the solver's path (where Newton starts, how far a
linear solve goes) moves outputs by about the Newton tolerance, which a hash
cannot tell from a regression. ``--numbers FILE`` writes, per case, the
numbers of its outputs as one JSON line: the numbers printed on stdout and
stderr, the `series.csv` columns and the VTK point arrays (every `run` case
writes its VTK snapshots here, so the trace constraints can be checked on
each). ``--compare A B`` checks two such files case by case (see
`compare_case`) and exits 1 if any case differs by more than its bound or
is missing from B. A case found only in B is new: it is listed, not judged.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402
from bscch.cli import main as bscch_main  # noqa: E402
from bscch.config import build_run_config, resolve  # noqa: E402
from bscch.mesh import generate_disk_mesh  # noqa: E402
from bscch.stepper import NewtonParams  # noqa: E402

SMALL = {
    "mesh.nb": "16", "mesh.nr": "4",
    "time.tau": "1e-4", "time.T": "1e-3",
    "init.mode": "random", "init.amplitude": "0.2", "init.seed": "7",
    "yosida.eps": "0.05",
    "output.dir": "out",
}


def _config(**overrides):
    cfg = dict(SMALL)
    cfg.update({k.replace("__", "."): str(v) for k, v in overrides.items()})
    return cfg


def _pair(kind):
    return {"potential__bulk": kind, "potential__surf": kind}


def _cases():
    """(name, argv with CONFIG standing for the config path, config or None)."""
    run = ["run", "--config", "CONFIG"]
    for (K, L), pot, alpha in itertools.product(
            itertools.product(("0", "1", "inf"), repeat=2), ("log", "obst"), ("1", "0.5")):
        yield (f"run-K{K}-L{L}-{pot}-a{alpha}", run,
               _config(model__K=K, model__L=L, model__alpha=alpha, model__beta="2", **_pair(pot)))
    for L, pot, mob in itertools.product(("0", "1", "inf"), ("reg", "log", "obst"),
                                         ("constant", "degenerate")):
        yield (f"run-K0-alpha0-L{L}-{pot}-{mob}", run,
               _config(model__K="0", model__L=L, model__alpha="0", **_pair(pot),
                       mobility__bulk__kind=mob, mobility__surf__kind=mob))
    yield ("run-degenerate-convection-vtk", run,
           _config(mobility__bulk__kind="degenerate", mobility__surf__kind="degenerate",
                   velocity__bulk="rigid_rotation", velocity__omega="1",
                   velocity__surf="rotation", velocity__speed="1",
                   output__every="5", output__vtk="true"))
    # both Dirichlet cases with weights that are not exact in binary, and convection
    yield ("run-K0-L0-a0.8-b1.2-convection", run,
           _config(model__K="0", model__L="0", model__alpha="0.8", model__beta="1.2",
                   velocity__bulk="rigid_rotation", velocity__omega="1",
                   velocity__surf="rotation", velocity__speed="1"))
    # convection switched on by a ramp over the first half of the run
    yield ("run-ramped-convection", run,
           _config(model__K="1", model__L="1",
                   velocity__bulk="rigid_rotation", velocity__omega="1",
                   velocity__surf="rotation", velocity__speed="1", velocity__ramp="5e-4"))
    # a 2-iteration Newton budget that fails at tau and is rescued by halving
    yield ("run-tau-halving", run,
           _config(time__T="2e-4", yosida__eps="0.02", init__amplitude="0.6",
                   init__margin="0.02", newton__max_iter="2", newton__max_tau_halvings="6"))
    # a one-iteration Newton budget without halving: exit 2, the failure message pinned
    yield ("run-newton-max-iter-1", run, _config(newton__max_iter="1"))
    # a separated state: two bubbles at +-1 and log at small eps, where the resolvent's
    # root lies within rounding of +-1
    yield ("run-bubbles-log-eps1e-3", run,
           _config(model__K="1", model__L="1", init__mode="bubbles", yosida__eps="1e-3",
                   **_pair("log")))
    # the obstacle pair on the same data: its active set moves, so the kept Jacobian
    # factor goes stale and GMRES misses, and the Newton system refactors
    yield ("run-bubbles-obst-eps1e-3", run,
           _config(model__K="1", model__L="1", init__mode="bubbles", yosida__eps="1e-3",
                   **_pair("obst")))
    # unequal wells, each regularized through its own resolvent call (the reverse pair,
    # log bulk / obst surface, is inadmissible at alpha = 1)
    yield ("run-unequal-obst-log", run,
           _config(model__K="1", model__L="1", model__alpha="1",
                   potential__bulk="obst", potential__surf="log"))
    yield ("run-init-constant", run, _config(init__mode="constant", init__mean="0.3"))
    # the separated regime (scripts/separated.cfg at 32x8, 400 steps): max|phi| passes 1,
    # the predictor acts and the kept factor goes stale and is refactored
    yield ("run-separated-32x8", run,
           _config(mesh__nb="32", mesh__nr="8", potential__theta_c="12", yosida__eps="0.01",
                   time__tau="4e-4", time__T="0.16", output__every="50"))
    short = _config(time__T="5e-4")
    yield ("limit-study-L->0",
           ["limit-study", "--config", "CONFIG", "--parameter", "L->0", "--schedule", "1,0.5,0.25"],
           short)
    yield ("limit-study-L->inf",  # the only limit that prints the mass_drift lines
           ["limit-study", "--config", "CONFIG", "--parameter", "L->inf", "--schedule", "1,2,4"],
           short)
    yield ("limit-study-K->0",  # the last member is the K = 0 (Dirichlet) case
           ["limit-study", "--config", "CONFIG", "--parameter", "K->0", "--schedule", "1,0.5,0"],
           _config(time__T="5e-4", model__alpha="0.8", model__beta="1.2"))
    yield ("limit-study-K->inf",  # the last member is the K = inf case
           ["limit-study", "--config", "CONFIG", "--parameter", "K->inf", "--schedule", "1,2,inf"],
           short)
    yield ("limit-study-eps->0",
           ["limit-study", "--config", "CONFIG", "--parameter", "eps->0",
            "--schedule", "0.1,0.05,0.025"], short)
    yield ("limit-study-tau->0",  # 5, 10 and 20 steps to the same final time
           ["limit-study", "--config", "CONFIG", "--parameter", "tau->0",
            "--schedule", "1e-4,5e-5,2.5e-5"], short)
    yield ("cont-dep", ["cont-dep", "--config", "CONFIG", "--amplitudes", "0,1e-3,2e-3"],
           _config(time__T="5e-4", init__mode="bubbles",
                   velocity__bulk="rigid_rotation", velocity__omega="1"))
    for K in ("0", "1", "inf", "0.5"):  # 0.5: the Robin family away from K = 1
        yield (f"elliptic-mms-K{K}", ["elliptic-mms", "--K", K, "--levels", "2"], None)
    for K in ("0", "1"):
        yield (f"poincare-K{K}", ["poincare", "--K", K, "--nb", "16", "--nr", "4"], None)
    # a mean weight (beta) that differs from the space weight (alpha)
    for K in ("0", "1"):
        yield (f"poincare-K{K}-a0.5-b2", ["poincare", "--K", K, "--alpha", "0.5", "--beta", "2",
                                          "--nb", "16", "--nr", "4"], None)
    for (bulk, surf), alpha in itertools.product(itertools.product(("reg", "log", "obst"), repeat=2),
                                                 ("-1", "0", "0.5", "0.99", "1", "1.1")):
        yield (f"potential-check-{bulk}-{surf}-a{alpha}",
               ["potential-check", "--pair", f"{bulk},{surf}", "--alpha", alpha], None)
    yield ("mesh-16-4", ["mesh", "--nb", "16", "--nr", "4", "--out", "disk.mesh"], None)


def _run(argv, cfg):
    """Run one case in a fresh directory; returns (rc, stdout, stderr, {path: bytes})
    of the files it wrote."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        if cfg is not None:
            (root / "case.cfg").write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
        out, err = io.StringIO(), io.StringIO()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = bscch_main([str(root / "case.cfg") if a == "CONFIG" else a for a in argv])
        except Exception as exc:  # a traceback is an outcome worth hashing too
            rc = f"raised-{type(exc).__name__}"
            err.write(str(exc))
        finally:
            os.chdir(cwd)
        files = {str(path.relative_to(root)): path.read_bytes()
                 for path in sorted(root.rglob("*")) if path.is_file() and path.name != "case.cfg"}
        return rc, out.getvalue(), err.getvalue(), files


def _digest(argv, cfg):
    """Run one case in a fresh directory; returns (rc, hex digest)."""
    rc, out, err, files = _run(argv, cfg)
    h = hashlib.sha256()
    h.update(out.encode() + b"\0" + err.encode() + b"\0")
    for path, data in files.items():
        h.update(path.encode() + b"\0" + data)
    return rc, h.hexdigest()


# -- the numeric oracle -------------------------------------------------------------
#
# Its bounds come from the stopping rule every case runs with (no case sets
# newton.tol_*): a step stops once its residual is at most tol_abs + tol_rel * r0, r0
# the residual where the step starts.  The phase rows of the residual are weighted by
# lumped masses, O(h^2), against stiffness terms of order one, so a residual within
# that bound pins the step's state only to within COND = 1 / h_min^2 times it (h_min
# the mesh's shortest edge), relative to the state's size.  Two runs contribute one
# such error each per step, and over a run of N steps they add up:
#
#     |a - b| <= 2 N COND (tol_rel * scale + tol_abs)
#
# for a value a of one run and b of the other, ``scale`` the size of the quantity:
# the largest magnitude of its array over the run (a phase field, a rate column),
# the phase fields' bound 1 for the separation margins, and energy / tau for the
# energy identity's defect, a difference quotient of the energy.  A number printed
# with p significant digits may also round the other way, so its bound adds one unit
# of its last digit.  The invariants keep their own bounds, which do not widen with
# N, COND or the tolerance:
#  - a conserved mass (the combined one, and each phase's at L = inf) to roundoff:
#    2 n eps (|Omega| + beta |Gamma|) max |phase|, the worst rounding of the n-term
#    lumped sums once per run;
#  - at K = 0, phi on the boundary equals alpha * psi bitwise in every snapshot of
#    both runs, and at L = 0 mu equals beta * theta;
#  - the times, the exit codes, the text around the printed numbers and every other
#    file (the mesh file, the VTK geometry) are equal exactly.
# The Newton iteration counts are what a solver change moves: they are kept in the
# files, not compared.

NEWTON = NewtonParams()


def shortest_edge(mesh):
    """h_min: the shortest triangle edge of ``mesh``."""
    corners = mesh.vertices[mesh.triangles]
    return float(np.linalg.norm(corners - np.roll(corners, 1, axis=1), axis=2).min())


def newton_bound(steps, h_min, scale):
    """The bound 2 N COND (tol_rel * scale + tol_abs) on |a - b| stated above."""
    return 2 * steps / h_min**2 * (NEWTON.tol_rel * scale + NEWTON.tol_abs)


UNIT_DISK = (math.pi, 2 * math.pi)  # |Omega|, |Gamma| of the meshed unit disk (upper bounds)
CONSERVED = {True: ("mass_bulk", "mass_surf", "mass_combined"), False: ("mass_combined",)}
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")


def _printed_unit(token):
    """One unit of the last printed digit of a float token; 0 for an integer token."""
    return 10.0 ** Decimal(token).as_tuple().exponent if any(c in token for c in ".eE") else 0.0


def _vtk_arrays(text):
    """(geometry up to POINT_DATA, point coordinates as written, {name: values})."""
    geometry, _, data = text.partition("POINT_DATA")
    count, *lines = geometry.split("POINTS ", 1)[1].splitlines()
    arrays = {}
    for block in data.split("SCALARS ")[1:]:
        name, _, *values = block.splitlines()
        arrays[name.split()[0]] = [float(v) for v in values]
    return geometry, lines[:int(count.split()[0])], arrays


def _numbers(name, argv, cfg):
    """The numbers of one case's outputs, as a JSON-ready dict."""
    if cfg is not None and argv[0] == "run":
        cfg = dict(cfg, **{"output.vtk": "true"})
    rc, out, err, files = _run(argv, cfg)
    text = out + "\0" + err
    record = {"name": name, "rc": rc, "text": _NUMBER.sub("#", text),
              "printed": _NUMBER.findall(text), "series": {}, "vtk": {}, "files": {}}
    if cfg is not None:
        r = resolve(cfg)
        record["model"] = {k: r[f"model.{k}"] for k in ("K", "L", "alpha", "beta")}
        params = build_run_config(cfg).params
        record["tau"], record["steps"] = r["time.tau"], params.n_steps
        if "tau->0" in argv:  # the members' own steps, the most at the finest
            schedule = argv[argv.index("--schedule") + 1].split(",")
            record["steps"] = max(replace(params, tau=float(v)).n_steps for v in schedule)
        mesh = generate_disk_mesh(r["mesh.nb"], r["mesh.nr"])
        record["mesh"] = {"n": mesh.n_vertices, "h_min": shortest_edge(mesh)}
    for path, data in files.items():
        if path.endswith("series.csv"):
            header, *rows = data.decode().splitlines()
            columns = zip(*(map(float, row.split(",")) for row in rows))
            record["series"] = dict(zip(header.split(","), map(list, columns)))
        elif path.endswith(".vtk"):
            geometry, points, arrays = _vtk_arrays(data.decode())
            record["vtk"][path] = {"points": points, "arrays": arrays}
            record["files"][path] = hashlib.sha256(geometry.encode()).hexdigest()
        else:
            record["files"][path] = hashlib.sha256(data).hexdigest()
    return record


def _ratio(a, b, bound):
    """Worst |x - y| / bound over the pairs of a and b: 0 for equal values (NaN too),
    inf for a difference that is not finite or a bound of 0."""
    worst = 0.0
    for x, y in zip(a, b):
        if not (x == y or math.isnan(x) and math.isnan(y)):
            diff = abs(x - y)
            worst = max(worst, diff / bound if bound > 0 and math.isfinite(diff) else math.inf)
    return worst


def _trace_defects(record):
    """The snapshots where a K = 0 / L = 0 trace constraint is not met bitwise."""
    model, bad = record.get("model", {}), []
    pairs = [("phi", "psi", model["alpha"])] if model.get("K") == 0.0 else []
    pairs += [("mu", "theta", model["beta"])] if model.get("L") == 0.0 else []
    for path, bulk in record["vtk"].items():
        if not Path(path).name.startswith("bulk_"):
            continue
        surf = record["vtk"][path.replace("bulk_", "surf_")]
        index = {line: k for k, line in enumerate(bulk["points"])}
        loop = [index[line] for line in surf["points"]]
        for bulk_name, surf_name, weight in pairs:
            b, s = bulk["arrays"][bulk_name], surf["arrays"][surf_name]
            if any(not b[v] == weight * s[k] for k, v in enumerate(loop)):
                bad.append(f"{path}: {bulk_name}|G != {weight:g} * {surf_name}")
    return bad


def compare_case(a, b):
    """([failures], {quantity: worst |a - b| / bound}) for two records of one case,
    with the bounds stated above."""
    fails = [f"{key} differs" for key in ("rc", "text", "files") if a[key] != b[key]]
    if len(a["printed"]) != len(b["printed"]) or a["series"].keys() != b["series"].keys():
        fails.append("different numbers of printed values or series columns")
    fails += _trace_defects(a) + _trace_defects(b)
    if fails:
        return fails, {}
    steps, mesh = a.get("steps", 1), a.get("mesh", {"n": 0, "h_min": 1.0})

    def newton(scale):
        return newton_bound(steps, mesh["h_min"], scale)

    worst = {"printed": 0.0}
    for x, y in zip(a["printed"], b["printed"]):
        unit = max(_printed_unit(x), _printed_unit(y))
        bound = newton(abs(float(x))) + unit if unit else 0.0
        worst["printed"] = max(worst["printed"], _ratio([float(x)], [float(y)], bound))
    series, model = a["series"], a.get("model", {})
    for name, values in series.items():
        theirs = b["series"][name]
        if name == "newton_iters":
            continue
        if len(values) != len(theirs):
            fails.append(f"series {name}: {len(values)} against {len(theirs)} records")
        elif name == "t":
            worst[name] = 0.0 if values == theirs else math.inf
        elif name in CONSERVED[model.get("L") == math.inf]:
            phase = max(abs(1 - m) for m in series["sep_margin_bulk"] + series["sep_margin_surf"])
            omega, gamma = UNIT_DISK
            roundoff = 2 * mesh["n"] * 2.0**-52
            worst[name] = _ratio(values, theirs,
                                 roundoff * (omega + abs(model["beta"]) * gamma) * phase)
        else:
            scale = (1.0 if name.startswith("sep_margin")
                     else max(map(abs, series["energy"])) / a["tau"] if name == "energy_residual"
                     else max(map(abs, values)))
            worst[name] = _ratio(values, theirs, newton(scale))
    for path, snapshot in a["vtk"].items():
        other = b["vtk"].get(path)
        if other is None or snapshot["points"] != other["points"]:
            fails.append(f"{path}: missing or its points differ")
            continue
        for name, values in snapshot["arrays"].items():
            theirs = other["arrays"].get(name, [])
            if len(values) != len(theirs):
                fails.append(f"{path}: {name} has {len(values)} against {len(theirs)} values")
                continue
            key = f"vtk:{name}"
            worst[key] = max(worst.get(key, 0.0), _ratio(values, theirs,
                                                         newton(max(map(abs, values)))))
    fails += [f"{key} is {ratio:.3g} times its bound" for key, ratio in worst.items()
              if ratio > 1.0]
    return fails, worst


def write_numbers(path):
    """Write every case's numbers to ``path``, one JSON line per case."""
    with open(path, "w") as fh:
        for name, argv, cfg in _cases():
            fh.write(json.dumps(_numbers(name, argv, cfg)) + "\n")
    return 0


def _read(path):
    with open(path) as fh:
        return {r["name"]: r for r in map(json.loads, fh)}


def compare(path_a, path_b):
    """Print ``name ok|FAIL worst-ratio quantity [reasons]`` per case of A; 0 if all pass.
    A case missing from B fails; a case only in B is new, reported and not judged."""
    a, b = _read(path_a), _read(path_b)
    failed, new = sorted(a.keys() - b.keys()), sorted(b.keys() - a.keys())
    if failed:
        print(f"cases missing from B: {', '.join(failed)}")
    if new:
        print(f"new cases in B, not judged: {', '.join(new)}")
    for name in (n for n in a if n in b):
        fails, worst = compare_case(a[name], b[name])
        if fails:
            failed.append(name)
        key = max(worst, key=worst.get, default="-")
        print(f"{name} {'FAIL' if fails else 'ok'} {worst.get(key, math.inf):.3g} {key} "
              f"{'; '.join(fails)}".rstrip())
    print(f"{len(a) - len(failed)} of {len(a)} cases within bounds")
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--numbers", metavar="FILE", help="write each case's numbers to FILE")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"),
                      help="check two --numbers files against the stated bounds")
    args = parser.parse_args(argv)
    if args.numbers:
        return write_numbers(args.numbers)
    if args.compare:
        return compare(*args.compare)
    for name, case_argv, cfg in _cases():
        rc, digest = _digest(case_argv, cfg)
        print(f"{name} {rc} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
