"""Steadiness check: run each workload N times in fresh processes.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --runs 10 [--workload eo-join ...]

Run i gets seed i (1, 2, ..., N) and the run length of BENCHMARK.json,
untraced.  For every end-to-end metric the command prints the median and
the first and third quartiles (``statistics.quantiles(values, n=4)``),
and flags a metric whose spread, (Q3 - Q1) / median, exceeds its bound in
BENCHMARK.json.  It also checks that the share of failed operations is
the same in every run.  Exits non-zero when a run fails, a check fails or
a metric is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from fractions import Fraction

from run import ROOT, run_child


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    flagged = 0
    for workload in workloads:
        results = []
        for seed in range(1, args.runs + 1):
            result = run_child(workload, seed, bench["run_seconds"], 0)
            results.append(result)
            share = Fraction(result["failed"], result["attempted"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']} share={float(share):.5f}",
                  flush=True)
        shares = {Fraction(r["failed"], r["attempted"]) for r in results}
        if len(shares) > 1:
            flagged += 1
            print(f"  FLAG {workload}: failed share differs between runs")
        if not all(r["correct"] for r in results):
            flagged += 1
            print(f"  FLAG {workload}: an output check failed")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            mark = ""
            if spread > bound:
                mark = "  FLAG"
                flagged += 1
            elif spread > bound / 3:
                mark = "  (over a third of the bound)"
            print(f"  {name:34s} {median:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{spread:8.3f} {bound:>6}{mark}", flush=True)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
