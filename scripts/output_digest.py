#!/usr/bin/env python3
"""Digest of the program's outputs on a fixed list of small CLI cases.

    python3 scripts/output_digest.py > digest.txt

Each case calls `bscch.cli.main` inside its own temporary directory and
prints one line ``name rc sha256``. The hash covers the case's stdout and
stderr and every file it wrote (relative path and bytes, in sorted order).
Running the script in two checkouts and diffing the two outputs checks that
they produce the same bytes. Uses only the standard library and the `bscch`
package of this checkout.
"""

import contextlib
import hashlib
import io
import itertools
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bscch.cli import main as bscch_main  # noqa: E402

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
    yield ("cont-dep", ["cont-dep", "--config", "CONFIG", "--amplitudes", "0,1e-3,2e-3"],
           _config(time__T="5e-4", init__mode="bubbles",
                   velocity__bulk="rigid_rotation", velocity__omega="1"))
    for K in ("0", "1", "inf"):
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


def _digest(argv, cfg):
    """Run one case in a fresh directory; returns (rc, hex digest)."""
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
        h = hashlib.sha256()
        h.update(out.getvalue().encode() + b"\0" + err.getvalue().encode() + b"\0")
        for path in sorted(p for p in root.rglob("*") if p.is_file() and p.name != "case.cfg"):
            h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
        return rc, h.hexdigest()


def main():
    for name, argv, cfg in _cases():
        rc, digest = _digest(argv, cfg)
        print(f"{name} {rc} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
