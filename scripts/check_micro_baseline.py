#!/usr/bin/env python3
"""Compare a micro_kernels run against the committed baseline.

Usage:
  micro_kernels --benchmark_filter='...' --benchmark_format=json \
      | scripts/check_micro_baseline.py bench/baselines/micro_kernels.json

The baseline stores per-benchmark cpu_time (ns) recorded on one machine;
a fresh run on a different machine is uniformly faster or slower. To
separate machine speed from simulator regressions, the checker
normalizes every benchmark's current/baseline ratio by a *calibration*
benchmark that exercises no simulator code (BM_ZipfGeneration: pure
data generation on the benchmark thread) and flags kernels that
drifted past the tolerance relative to it. A broad regression across all simulator kernels is
still caught because the calibration kernel does not move with them.
If the calibration benchmark is absent, the median ratio is used (which
only catches regressions in fewer than half the kernels).

A run with repetitions (--benchmark_repetitions=N, as CI runs it, with
--benchmark_report_aggregates_only=true) is read by its per-benchmark
median aggregates, so one slow repetition of an entry or of the
calibrator does not decide the verdict; a run without them by its
single cpu_time per benchmark.

Exit status: 0 = within tolerance, 1 = regression or a benchmark that
reported an error (SkipWithError), 2 = usage/data error.
Tolerance defaults to 0.30; override with GJOIN_MICRO_TOLERANCE.
"""

import json
import os
import statistics
import sys

CALIBRATION_PREFIX = "BM_ZipfGeneration/"


def current_times(benchmarks):
    """cpu_time per benchmark name: the median aggregate when the run has
    repetitions, else the single iteration entry."""
    medians = {b["run_name"]: b["cpu_time"] for b in benchmarks
               if b.get("run_type") == "aggregate"
               and b.get("aggregate_name") == "median"}
    if medians:
        return medians
    return {b["name"]: b["cpu_time"] for b in benchmarks
            if b.get("run_type", "iteration") == "iteration"}


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    tolerance = float(os.environ.get("GJOIN_MICRO_TOLERANCE", "0.30"))

    with open(sys.argv[1]) as f:
        baseline = json.load(f)["benchmarks"]
    current_run = json.load(sys.stdin)
    current = current_times(current_run["benchmarks"])
    errors = [b for b in current_run["benchmarks"] if b.get("error_occurred")]
    for b in errors:
        print(f"ERROR    {b['name']}: {b.get('error_message', '')}",
              file=sys.stderr)
    if errors:
        return 1

    ratios = {}
    for name, base_ns in baseline.items():
        if name not in current:
            print(f"MISSING  {name}: not in current run", file=sys.stderr)
            return 2
        ratios[name] = current[name] / base_ns

    calibration = [r for n, r in ratios.items()
                   if n.startswith(CALIBRATION_PREFIX)]
    if calibration:
        reference = statistics.median(calibration)
        ref_label = "calibration"
    else:
        reference = statistics.median(ratios.values())
        ref_label = "median"
    limit = reference * (1.0 + tolerance)

    failed = False
    for name, ratio in sorted(ratios.items()):
        if name.startswith(CALIBRATION_PREFIX):
            print(f"CAL  {name}: {ratio:.2f}x of baseline")
            continue
        verdict = "OK  " if ratio <= limit else "SLOW"
        if ratio > limit:
            failed = True
        print(f"{verdict} {name}: {ratio:.2f}x of baseline "
              f"(limit {limit:.2f}x, {ref_label} {reference:.2f}x)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
