"""Benchmark of the bscch simulator, one workload per call.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it imports `bscch` from `src/`).
Each measured invocation is a fresh interpreter (bench/child.py) with
BSCCH_THREADS=1, run one at a time. For S seconds the benchmark repeats:

* trace 0: a set-up probe (the program's public set-up calls) and one
  workload invocation through `bscch.cli.main`;
* trace 1: one untraced and one traced invocation.

Every invocation's outputs are checked (checks.py). The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with trace 0, the per-layer ones with
trace 1. The lines before it give each metric's median, quartiles and
sample count, and the environment. Everything the benchmark writes goes
under `.bench_work/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import checks
import spans
from workloads import WORKLOADS, argv as workload_argv, config_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
MIN_ITERATIONS = 3
HARD_STOP_S = 150.0     # start no invocation after this; the run must end by 180 s
CHILD_TIMEOUT_S = 120.0
THREAD_VARS = ("BSCCH_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def environment(child_env):
    """Where and on what the numbers were measured."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"  # a checkout without git history is identified by src_sha256
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=10).stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, subprocess.SubprocessError, ValueError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bscch").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "threads": {k: child_env[k] for k in THREAD_VARS if k in child_env},
    }


class Invoker:
    """Starts children one at a time and collects their results."""

    def __init__(self, workdir, request, env, deadline):
        self.workdir = workdir
        self.request = workdir / "request.json"
        self.request.write_text(json.dumps(request))
        self.env = env
        self.deadline = deadline
        self.count = 0

    def __call__(self, mode):
        """Run one child; returns (result dict or None, peak RSS in MB, error)."""
        self.count += 1
        out = self.workdir / f"result-{self.count}.json"
        err = self.workdir / f"stderr-{self.count}.txt"
        with open(err, "w") as errfh:
            proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), mode,
                                     str(self.request), str(out)],
                                    cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=errfh)
            status, usage = self._wait(proc)
        rss_mb = usage.ru_maxrss / 1024.0
        if status is None:
            return None, rss_mb, "timed out"
        if status != 0 or not out.is_file():
            tail = err.read_text()[-400:].strip().replace("\n", " | ")
            return None, rss_mb, f"exit {status}: {tail}"
        result = json.loads(out.read_text())
        err.unlink()
        if mode != "traced":  # traced results keep their spans for inspection
            out.unlink()
        return result, rss_mb, None

    def _wait(self, proc):
        # os.wait4 rather than Popen.wait: it also returns the child's rusage
        limit = min(CHILD_TIMEOUT_S, self.deadline - time.monotonic())
        end = time.monotonic() + max(limit, 1.0)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage
            if time.monotonic() > end:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                return None, usage
            time.sleep(0.01)


def quartiles(values):
    return spans.percentile(values, 25), statistics.median(values), spans.percentile(values, 75)


def output_bytes(outdir):
    return sum(p.stat().st_size for p in Path(outdir).iterdir() if p.is_file())


def measure(workload, invoke, outdir, trace, seconds):
    """The timed loop; returns samples and the failure log."""
    samples = {"wall_s": [], "setup_s": [], "peak_rss_mb": [], "traced_wall_s": [],
               "traced": []}
    failures, attempted = [], 0
    t_start = time.monotonic()

    def workload_invocation(mode):
        shutil.rmtree(outdir, ignore_errors=True)
        os.makedirs(outdir)
        res, rss, err = invoke(mode)
        if err is None and not res["module"].startswith(str(ROOT / "src")):
            err = f"imported bscch from {res['module']}, not from this checkout"
        if err is None:
            err = "; ".join(checks.check_invocation(workload, str(outdir), res["stdout"])) or None
        if err is None:
            res["output_bytes"] = output_bytes(outdir)
        return res, rss, err

    # untimed warm-up: byte-compiles the package and fills the file cache
    invoke("setup")
    while True:
        elapsed = time.monotonic() - t_start
        if elapsed > HARD_STOP_S or (elapsed >= seconds and attempted >= MIN_ITERATIONS):
            break
        attempted += 1
        errs = []
        if trace:
            res, _, err = workload_invocation("run")
            if err is None:
                samples["wall_s"].append(res["wall_s"])
            errs.append(err)
            res, _, err = workload_invocation("traced")
            if err is None:
                samples["traced_wall_s"].append(res["wall_s"])
                samples["traced"].append(res)
            errs.append(err)
        else:
            res, _, err = invoke("setup")
            if err is None:
                samples["setup_s"].append(res["setup_s"])
            errs.append(err)
            res, rss, err = workload_invocation("run")
            if err is None:
                samples["wall_s"].append(res["wall_s"])
                samples["peak_rss_mb"].append(rss)
            errs.append(err)
        errs = [e for e in errs if e]
        if errs:
            failures.append(f"iteration {attempted}: " + "; ".join(errs))
    return samples, attempted, failures


def per_layer(samples):
    """Median over traced invocations of each layer metric; step percentiles
    over all traced steps pooled."""
    rows, step_ms, shares, absent = [], [], {}, set()
    for res in samples["traced"]:
        m, steps, sh = spans.layer_metrics(res["spans"], res["factor_nnz"])
        m["output.bytes"] = res["output_bytes"]
        rows.append(m)
        step_ms += steps
        for k, v in sh.items():
            shares.setdefault(k, []).append(v)
        absent.update(res["absent"])
    plain, traced = samples["wall_s"], samples["traced_wall_s"]
    pooled = {
        "stepper.step.ms_p50": spans.percentile(step_ms, 50),
        "stepper.step.ms_p98": spans.percentile(step_ms, 98),
        "trace.overhead_frac": ((statistics.median(traced) - statistics.median(plain))
                                / statistics.median(plain) if plain and traced else 0.0),
        "trace.absent": len(absent),
    }
    metrics = {}
    for name, unit, _ in spans.PER_LAYER:
        vals = [r[name] for r in rows if name in r]
        value = pooled[name] if name in pooled else statistics.median(vals) if vals else 0.0
        metrics[name] = (value, unit)
    return metrics, {k: statistics.median(v) for k, v in shares.items()}, sorted(absent)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "bscch" / "cli.py").is_file():
        print(f"bench: no bscch sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    outdir = workdir / "out"
    cfg_path = workdir / "workload.cfg"
    cfg_path.write_text(config_text(workload, args.seed % 2**32, str(outdir)))
    request = {"argv": workload_argv(workload, str(cfg_path)), "config": str(cfg_path),
               "ensemble": workload.ensemble}
    env = dict(os.environ, BSCCH_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    env_record = environment(env)
    deadline = time.monotonic() + 170.0

    try:
        samples, attempted, failures = measure(
            workload, Invoker(workdir, request, env, deadline), outdir, args.trace, args.seconds)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    print(f"bench: workload={workload.name} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print("env: " + json.dumps(env_record, sort_keys=True))
    for msg in failures:
        print("FAILED " + msg)
    failed = len(failures)
    print(f"failed_frac {failed}/{attempted} = {failed / attempted:.4g}")

    summary = {}
    if args.trace:
        layer, shares, absent = per_layer(samples)
        for name in absent:
            print(f"absent: {name}")
        for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"self share of loop {name:42s} {share:.4f}")
        for name, (value, unit) in layer.items():
            print(f"{name:46s} {value:.6g} {unit}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        summary["self_shares"] = shares
    else:
        metrics = {}
        for name, unit in END_TO_END:
            vals = samples[name]
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            print(f"{name:12s} median={med:.6g} p25={q1:.6g} p75={q3:.6g} n={len(vals)} {unit}")
            metrics[name] = {"value": med, "unit": unit}
            summary[name] = {"median": med, "p25": q1, "p75": q3, "n": len(vals), "values": vals}
    result = {"correct": failed == 0 and bool(metrics), "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (workdir / "summary.json").write_text(json.dumps(
        {"workload": workload.name, "seed": args.seed, "trace": args.trace,
         "seconds": args.seconds, "argv": request["argv"], "config": cfg_path.read_text(),
         "env": env_record, "result": result, "summary": summary, "failures": failures},
        indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
