"""One measured invocation in a fresh interpreter.

    python3 bench/child.py setup  REQUEST.json RESULT.json
    python3 bench/child.py run    REQUEST.json RESULT.json
    python3 bench/child.py traced REQUEST.json RESULT.json

``setup`` times the program's public set-up calls; ``run`` times one
workload through `bscch.cli.main`, from before `import bscch` to the return
of `main`; ``traced`` does the same with spans recorded (see spans.py). The
request names the workload's argv and config; the result is JSON. Nothing
of `bscch` may be imported before the clock starts, so this module imports
only the standard library at the top.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def setup(req):
    """Time the calls the program makes before its first step."""
    phases = {}
    t0 = last = time.perf_counter()

    def lap(name):
        nonlocal last
        now = time.perf_counter()
        phases[name] = now - last
        last = now

    import bscch
    lap("import")
    from bscch.config import load_run_config
    config, _ = load_run_config(req["config"])
    lap("load_run_config")
    mesh = bscch.generate_disk_mesh(config.nb, config.nr)
    lap("generate_disk_mesh")
    forms = bscch.assemble_core(mesh)
    lap("assemble_core")
    bscch.Stepper(mesh, config.params, forms)
    lap("Stepper")
    from bscch.stepper import initial_state
    initial_state(mesh, config.params, forms)
    lap("initial_state")
    if req["ensemble"]:
        bscch.InverseCoupledOperator(mesh, config.params.coupling, forms=forms)
        lap("InverseCoupledOperator")
    return {"rc": 0, "setup_s": last - t0, "phases": phases, "module": bscch.__file__}


def invoke(req, traced):
    """One workload invocation through the command-line entry point."""
    out = io.StringIO()
    t0 = time.perf_counter()
    import bscch
    import bscch.cli
    tracer = absent = None
    if traced:
        import spans
        tracer = spans.Tracer()
        absent = spans.install(tracer, sys.modules)
        root = tracer.open("cli.main")
    with contextlib.redirect_stdout(out):
        try:
            rc = bscch.cli.main(req["argv"])
        finally:
            if traced:
                tracer.close(root)
    wall = time.perf_counter() - t0
    result = {"rc": rc, "wall_s": wall, "stdout": out.getvalue(), "module": bscch.__file__}
    if traced:
        result.update(spans=tracer.spans, absent=absent, factor_nnz=tracer.factor_nnz())
    return result


def main():
    mode, req_path, out_path = sys.argv[1:4]
    with open(req_path) as fh:
        req = json.load(fh)
    result = setup(req) if mode == "setup" else invoke(req, traced=mode == "traced")
    result["mode"] = mode
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return result["rc"]


if __name__ == "__main__":
    sys.exit(main())
