"""Gather the run summaries under `.bench_work/` into one JSON record.

    python3 bench/collect.py OUT.json

For each workload, every metric gets the median, quartiles and count of
its per-run values (one value per `run.py` call), next to the workload's
config, the seeds used and the environment of the first run. Use it to write a `BENCH_<n>.json` or a
baseline from a set of runs made on one commit and one machine.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import spans
from workloads import WORKLOADS

WORK = Path(__file__).resolve().parent.parent / ".bench_work"


def collect(summaries):
    out, env = {}, None
    for s in sorted(summaries, key=lambda s: (s["workload"], s["trace"], s["seed"])):
        env = env or s["env"]
        if s["workload"] not in out:
            w = WORKLOADS[s["workload"]]
            out[s["workload"]] = {"why": w.why, "command": [w.command, *w.extra_args],
                                  "config": dict(w.config), "seeds": {}, "metrics": {},
                                  "failed": 0, "attempted": 0}
        wl = out[s["workload"]]
        wl["seeds"].setdefault(f"trace{s['trace']}", []).append(s["seed"])
        wl["failed"] += s["result"]["failed"]
        wl["attempted"] += s["result"]["attempted"]
        for name, m in s["result"]["metrics"].items():
            wl["metrics"].setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
    for wl in out.values():
        for m in wl["metrics"].values():
            vals = m.pop("values")
            m.update(median=statistics.median(vals), p25=spans.percentile(vals, 25),
                     p75=spans.percentile(vals, 75), runs=len(vals))
    return {"env": env, "workloads": out}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 1
    summaries = [json.loads(p.read_text()) for p in WORK.glob("*/summary.json")]
    Path(argv[0]).write_text(json.dumps(collect(summaries), indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
