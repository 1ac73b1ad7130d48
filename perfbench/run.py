"""End-to-end commit and read benchmark on the real replicated engine.

Usage (from the repository root)::

    python3 perfbench/run.py --workload oe-simple --seed 1 --seconds 18 \\
        --trace 0

Builds a 3-organization in-process network from ``src/``, loads the
seeded data set, drives one closed-loop workload through a fixed number
of transactions (sized to take about ``--seconds`` on a 2-vCPU VM) and
checks every output against the generated data.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``).  A human-readable report goes
to standard error.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Set-ups before and after the timed window of an untraced run; setup_s
#: is their median.  Spreading them over the run averages the machine's
#: speed over more of it than set-ups in one burst would.
SETUPS_BEFORE = 2
SETUPS_AFTER = 2


def run_child(workload: str, seed: int, seconds: int, trace: int):
    """Run this benchmark in a fresh process; returns its JSON result."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, check=True, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True, timeout=600)
    return json.loads(out.stdout.strip().splitlines()[-1])


# The engine's own environment switches (tracing, chaos plans, commit
# pipeline knobs) must not leak into a measurement: the benchmark always
# measures the default configuration.
for _name in [n for n in os.environ if n.startswith("REPRO_")]:
    del os.environ[_name]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402


def percentile(samples, q: int) -> float:
    """The ``q``-th percentile (inclusive method) of ``samples``."""
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def end_to_end_metrics(driver, elapsed: float, committed: int):
    """Every end-to-end metric except ``setup_s``."""
    metric = {}

    def put(name, value, unit):
        metric[name] = {"value": value, "unit": unit}

    put("commit_tps", committed / elapsed, "tx/s")
    put("commit_p50_ms", percentile(driver.commit_ms, 50), "ms")
    put("commit_p95_ms", percentile(driver.commit_ms, 95), "ms")
    put("read_point_p50_ms", percentile(driver.point_ms, 50), "ms")
    put("read_asof_p50_ms", percentile(driver.asof_ms, 50), "ms")
    put("read_asof_p95_ms", percentile(driver.asof_ms, 95), "ms")
    put("peak_rss_mb",
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metric


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = workloads.SPECS[args.workload]

    tracer = None
    if args.trace:
        import layers
        # Handlers bound while the network is built must already see the
        # wrapped functions, so wrapping precedes set-up; recording only
        # starts with the timed window.
        tracer = layers.LayerTracer()
        tracer.install()
    # setup_s comes from untraced runs only, so one set-up will do here.
    driver, setup_seconds = workloads.setup(
        spec, args.seed, repeats=1 if args.trace else SETUPS_BEFORE)
    if tracer is not None:
        tracer.start(driver.net)
    elapsed, committed = driver.run(args.seconds)
    if tracer is not None:
        tracer.stop(driver.net)
        tracer.uninstall()

    problems = checks.run_all(driver)
    attempted = driver.tx_attempted + driver.read_attempted
    failed = driver.tx_failed + driver.read_failed
    if tracer is not None:
        metrics = tracer.per_layer_metrics(driver, elapsed, committed)
    else:
        metrics = end_to_end_metrics(driver, elapsed, committed)

    report = sys.stderr
    print(f"workload {spec.name} seed {args.seed}: {committed} committed "
          f"in {elapsed:.2f} s; {len(driver.commit_ms)} commit, "
          f"{len(driver.fresh_ms)} fresh, {len(driver.point_ms)} point, "
          f"{len(driver.asof_ms)} as-of samples; attempted {attempted} "
          f"(tx {driver.tx_attempted}, read {driver.read_attempted}), "
          f"failed {failed} (tx {driver.tx_failed}, "
          f"read {driver.read_failed})", file=report)
    if tracer is not None:
        print(tracer.table(), file=report)
    for name, entry in metrics.items():
        print(f"  {name:34s} {entry['value']:14.4f} {entry['unit']}",
              file=report)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=report)
    if tracer is None:
        # Peak RSS is read above, before these networks exist.
        driver = None
        setup_seconds += workloads.setup(spec, args.seed,
                                         repeats=SETUPS_AFTER)[1]
        metrics["setup_s"] = {"value": statistics.median(setup_seconds),
                              "unit": "s"}
        print(f"  {'setup_s':34s} {metrics['setup_s']['value']:14.4f} s "
              f"(set-ups: {', '.join(f'{x:.3f}' for x in setup_seconds)})",
              file=report)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
