#!/usr/bin/env python3
"""Median, quartiles and spread of each metric over saved benchmark runs.

    python3 perfbench/summarize.py --seeds 101-110 [--trace 0] [--json]
                                   [--workloads decay,inequality]

Reads ``.perfbench_out/results/<workload>-seed<s>-trace<t>.json`` from the
checkout root and prints, per workload and metric, the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(q3 - q1) / median, which the end-to-end bounds in BENCHMARK.json are
checked against, for the workloads in BENCHMARK.json unless
``--workloads`` names others.  ``--json`` prints the same as one JSON
object, with the run metadata of the first run of each workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

RESULTS = Path(__file__).resolve().parent.parent / ".perfbench_out" / "results"


def summarize(workload, seeds, trace):
    runs = [json.loads(p.read_text()) for s in seeds
            if (p := RESULTS / f"{workload}-seed{s}-trace{trace}.json").is_file()]
    if not runs:
        return None
    out = {"runs": len(runs), "meta": runs[0]["meta"],
           "all_correct": all(r["result"]["correct"] for r in runs),
           "metrics": {}}
    for name, m in runs[0]["result"]["metrics"].items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else (med, med, med))
        out["metrics"][name] = {"unit": m["unit"], "median": med, "q1": q1,
                                "q3": q3, "spread": (q3 - q1) / med if med else 0.0}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--workloads", help="comma-separated names")
    args = parser.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    if args.workloads:
        names = args.workloads.split(",")
    else:
        spec = json.loads((RESULTS.parent.parent / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
    table = {name: summarize(name, range(lo, hi + 1), args.trace)
             for name in names}
    if args.json:
        print(json.dumps(table, indent=1, sort_keys=True))
        return 0
    for workload, summary in table.items():
        if summary is None:
            print(f"{workload}: no runs")
            continue
        print(f"{workload}: {summary['runs']} runs, all correct "
              f"{summary['all_correct']}")
        for name, m in summary["metrics"].items():
            print(f"  {name:45s} {m['median']:.6g} {m['unit']} "
                  f"[{m['q1']:.6g}, {m['q3']:.6g}] spread {m['spread']:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
