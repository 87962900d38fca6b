"""Repeat run.py over seeds and summarize the spread of every metric.

    python3 perfbench/collect.py --workloads flow certify --seeds 0 2 3 4 5 \
        [--seconds S] [--held-out 1] [--trace-seed 0] [--out perfbench/baseline.json]

For each workload and end-to-end metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median
next to the metric's bound in BENCHMARK.json.  `--held-out` runs one
more seed that later claims can be checked on; `--trace-seed` adds one
traced run per workload.  Runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import ROOT, report_lines, run


def spread_summary(values, bound):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "bound": bound,
            "values": values}


def flow_outcomes(rec):
    return [{"op": op["label"], **op["info"]} for op in rec["ops"] if op["kind"] == "flow"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--held-out", type=int, default=None)
    parser.add_argument("--trace-seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    result = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            rec = run(workload, seed, seconds, 0)
            runs.append(rec)
            print(f"{workload} seed {seed}: correct={rec['correct']} failed={rec['failed']}/"
                  f"{rec['attempted']} " + " ".join(
                      f"{k}={rec['metrics'][k]:.4f}" for k in bounds), file=sys.stderr)
        entry = {
            "summary": {name: spread_summary([r["metrics"][name] for r in runs], bound)
                        for name, bound in bounds.items()},
            "runs": [{"seed": r["seed"], "correct": r["correct"], "attempted": r["attempted"],
                      "failed": r["failed"], "passes": len(r["passes"]),
                      "flows": flow_outcomes(r), "problems": r["problems"]} for r in runs],
        }
        if args.held_out is not None:
            rec = run(workload, args.held_out, seconds, 0)
            entry["held_out"] = {"seed": args.held_out, "correct": rec["correct"],
                                 "failed": rec["failed"], "attempted": rec["attempted"],
                                 "metrics": rec["metrics"], "flows": flow_outcomes(rec)}
        if args.trace_seed is not None:
            rec = run(workload, args.trace_seed, seconds, 1)
            entry["traced"] = {"seed": args.trace_seed, "correct": rec["correct"],
                               "per_layer": rec["metrics"]}
            print("\n".join(report_lines(rec)), file=sys.stderr)
        result["workloads"][workload] = entry
        result["stamp"] = runs[0]["stamp"]
        for name, s in entry["summary"].items():
            flag = "" if s["spread"] <= s["bound"] / 3 else "  > bound/3"
            print(f"{workload:14s} {name:12s} median {s['median']:.4f}  q1 {s['q1']:.4f}  "
                  f"q3 {s['q3']:.4f}  spread {s['spread']:.4f}  bound {s['bound']}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
