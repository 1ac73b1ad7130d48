"""Reference figures: measured paper micro-metrics beside the simulator's
modeled values, and the tracing overhead.

Usage (from the repository root)::

    python3 perfbench/reference.py

For each workload, three untraced and three traced runs (seeds 1-3, the
run length of BENCHMARK.json, alternating) measure the medians of
``processor.bpt_ms`` (the paper's block processing time, *bpt*) and
``backend.execute_ms`` (its transaction execution time, *tet*) on the
real engine, and the tracing overhead: ``100 * (untraced - traced) /
untraced`` of the two modes' median ``commit_tps``.  The calibrated
pipeline simulator (``repro.bench.perfmodel`` with the profiles of
``repro.bench.profiles``) is then run at the same flow, contract, block
size and arrival rate, and both are printed side by side.  The modeled
values describe the paper's 32-vCPU PostgreSQL testbed; the measured ones
this single Python process.
"""

from __future__ import annotations

import json
import statistics
import sys

from run import ROOT, run_child

from repro.bench.perfmodel import (
    FLOW_EO, FLOW_OE, PipelineSimulator, SimConfig)
from repro.bench.profiles import COMPLEX_JOIN, SIMPLE
from repro.node.backend import FLOW_ORDER_EXECUTE

import workloads

SEEDS = (1, 2, 3)


def main() -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "run_seconds"]
    print(f"{'workload':11s} {'bpt ms':>9s} {'model':>9s} {'tet ms':>9s} "
          f"{'model':>9s} {'tx/blk':>7s} {'tx/s':>7s} {'traced':>7s} "
          f"{'overhead':>8s}")
    for name, spec in workloads.SPECS.items():
        untraced, traced = [], []
        for seed in SEEDS:
            untraced.append(run_child(name, seed, seconds, 0)["metrics"])
            traced.append(run_child(name, seed, seconds, 1)["metrics"])

        def median(runs, metric):
            return statistics.median(r[metric]["value"] for r in runs)

        tps = median(untraced, "commit_tps")
        traced_tps = 1e3 / median(traced, "trace.wall_ms_per_tx")
        model = PipelineSimulator(SimConfig(
            flow=FLOW_OE if spec.flow == FLOW_ORDER_EXECUTE else FLOW_EO,
            profile=SIMPLE if spec.contract == "simple_insert"
            else COMPLEX_JOIN,
            arrival_rate=tps, block_size=spec.block_size,
            block_timeout=spec.block_timeout, duration=20.0)).run().row()
        print(f"{name:11s} {median(traced, 'processor.bpt_ms'):9.2f} "
              f"{model['bpt']:9.2f} "
              f"{median(traced, 'backend.execute_ms'):9.2f} "
              f"{model['tet']:9.2f} "
              f"{median(traced, 'chain.txs_per_block'):7.1f} {tps:7.1f} "
              f"{traced_tps:7.1f} {100 * (tps - traced_tps) / tps:7.1f}%",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
