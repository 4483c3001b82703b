#!/usr/bin/env python3
"""Compare two sets of gjoin end-to-end benchmark runs.

    python3 bench/e2e/compare.py --base A1.json A2.json A3.json \\
        --new B1.json B2.json B3.json

Each file is a record file written by run.py ({"runs": [...]}). Run the
two sets interleaved (A B A B ...) in one sitting: the machine's speed
drifts, and bench.calibration_s (a fixed piece of host work timed in
every run) shows by how much.

For every workload and end-to-end metric of BENCHMARK.json it prints one
verdict, with each side's median and quartiles:

  unresolved  one side's spread (quartile distance over median) is wider
              than the metric's bound, and the new runs do not all beat
              every base run;
  regressed   the new median is worse than the base median by more than
              the bound;
  improved    at least 10 pairs were run (base run i against new run
              i), the new side wins at least 9 in 10 of them (ties count
              for neither side), and the medians differ by more than the
              base side's quartile distance; with a spread wider than the
              bound, at least 10 pairs and every new run better than
              every base run;
  unchanged   otherwise: no regression beyond the bound and no gain that
              meets the rule above.

It also checks that every modeled number and count (hw.*, exec.modeled_*
and the count, byte and simulated-seconds metrics) reads the same on
both sides for each seed: a difference is a model change, never noise.
Exit status 1 when anything regressed or the model changed.

--self-test runs these rules on built-in fixtures.
"""

import argparse
import json
import os
import statistics
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
CALIBRATION = "bench.calibration_s"
CALIBRATION_TOLERANCE = 0.10
WIN_SHARE = 0.9
MIN_PAIRS = 10
MODEL_UNITS = ("count", "bytes", "sim_s")


def load_runs(paths):
    runs = []
    for path in paths:
        with open(path) as f:
            runs.extend(json.load(f)["runs"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    q1, q3 = quartiles(values)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def summary(values):
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.5g} [{q1:.5g}, {q3:.5g}]"


def verdict(base, new, better, bound):
    """Returns (verdict, relative change, pairs won, pairs) for one metric."""
    lower = better == "lower"

    def beats(a, b):  # a reads better than b
        return a < b if lower else a > b

    med_base = statistics.median(base)
    med_new = statistics.median(new)
    change = (med_new - med_base) / med_base if med_base else 0.0
    worse = change if lower else -change
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if beats(n, b))
    enough = len(pairs) >= MIN_PAIRS
    q1, q3 = quartiles(base)
    if max(spread(base), spread(new)) > bound:
        all_better = all(beats(n, b) for n in new for b in base)
        v = "improved" if enough and all_better else "unresolved"
    elif worse > bound:
        v = "regressed"
    elif (enough and worse < 0 and wins >= WIN_SHARE * len(pairs)
          and abs(med_new - med_base) > q3 - q1):
        v = "improved"
    else:
        v = "unchanged"
    return v, change, wins, len(pairs)


def values_of(runs, workload, metric):
    return [r["metrics"][metric]["value"] for r in runs
            if r["workload"] == workload and r.get("trace", 0) == 0
            and r["correct"] and metric in r["metrics"]]


def is_model_metric(name, unit):
    layer = name.split(".")[0]
    if layer in ("bench", "obs") or "." not in name:
        return False
    return unit in MODEL_UNITS or name.startswith("exec.modeled_")


def model_changes(base, new):
    """Names every (workload, seed, metric) whose modeled value differs;
    also returns how many such values were compared."""
    seen = {}
    for side, runs in (("base", base), ("new", new)):
        for r in runs:
            if not r["correct"]:
                continue
            for name, m in r["metrics"].items():
                if is_model_metric(name, m["unit"]):
                    key = (r["workload"], r["seed"], name)
                    seen.setdefault(key, set()).add((side, m["value"]))
    changes = []
    for (workload, seed, name), values in sorted(seen.items()):
        if len({v for _, v in values}) > 1:
            shown = ", ".join(f"{side}={v!r}" for side, v in sorted(values))
            changes.append(f"{workload} seed={seed} {name}: {shown}")
    return changes, len(seen)


def compare(bench, base, new, out=sys.stdout):
    """Prints the comparison; returns (rows, model changes, warnings)."""
    workloads = [w["name"] for w in bench["workloads"]]
    rows = []
    print(f"{'workload':18s} {'metric':15s} {'unit':10s} "
          f"{'base median [q1, q3]':>36s} {'new median [q1, q3]':>36s} "
          f"{'change':>8s} {'wins':>7s}  verdict", file=out)
    for w in workloads:
        for spec in bench["end_to_end"]:
            a = values_of(base, w, spec["name"])
            b = values_of(new, w, spec["name"])
            if not a or not b:
                continue
            v, change, wins, pairs = verdict(a, b, spec["better"],
                                             spec["bound"])
            rows.append((w, spec["name"], v))
            print(f"{w:18s} {spec['name']:15s} {spec['unit']:10s} "
                  f"{summary(a):>36s} {summary(b):>36s} {change:+8.2%} "
                  f"{wins:>3d}/{pairs:<3d}  {v}", file=out)
    changes, compared = model_changes(base, new)
    for c in changes:
        print(f"MODEL CHANGE {c}", file=out)
    print(f"model check: {compared} modeled values and counts, "
          f"{len(changes)} changed", file=out)
    warnings = []
    cal_a = [r["metrics"][CALIBRATION]["value"] for r in base
             if CALIBRATION in r["metrics"]]
    cal_b = [r["metrics"][CALIBRATION]["value"] for r in new
             if CALIBRATION in r["metrics"]]
    if cal_a and cal_b:
        ratio = statistics.median(cal_b) / statistics.median(cal_a)
        if abs(ratio - 1) > CALIBRATION_TOLERANCE:
            warnings.append(
                f"machine drift: calibration median moved {ratio - 1:+.1%} "
                "between the sets; interleave the runs and measure again")
    for warning in warnings:
        print(f"WARNING {warning}", file=out)
    return rows, changes, warnings


def self_test():
    bench = {
        "workloads": [{"name": n} for n in ("steady", "slower", "faster",
                                            "faster_few", "noisy",
                                            "far_faster")],
        "end_to_end": [
            {"name": "call_s_p50", "unit": "s", "better": "lower",
             "bound": 0.1},
            {"name": "host_mtps", "unit": "Mtuples/s", "better": "higher",
             "bound": 0.1},
        ],
    }
    jitter = [0.0, 0.01, -0.01, 0.005, -0.005, 0.002, -0.002, 0.008,
              -0.008, 0.003]
    wide = [1.0, 1.5, 0.7, 1.3, 0.8, 1.1, 0.9, 1.4, 0.75, 1.2]

    def around(center, n=10):
        return [center + j for j in jitter[:n]]

    base_times = {"steady": around(1.0), "slower": around(1.0),
                  "faster": around(1.0), "faster_few": around(1.0, 3),
                  "noisy": wide, "far_faster": wide}
    new_times = {"steady": around(1.001), "slower": around(1.2),
                 "faster": around(0.8), "faster_few": around(0.8, 3),
                 "noisy": [v * 1.02 for v in reversed(wide)],
                 "far_faster": around(0.3)}
    expected = {
        ("steady", "call_s_p50"): "unchanged",
        ("steady", "host_mtps"): "unchanged",
        ("slower", "call_s_p50"): "regressed",
        ("faster", "call_s_p50"): "improved",
        ("faster_few", "call_s_p50"): "unchanged",
        ("noisy", "call_s_p50"): "unresolved",
        ("far_faster", "call_s_p50"): "improved",
    }

    def runs(times, calibration, modeled):
        out = []
        for w, values in times.items():
            for i, t in enumerate(values):
                metrics = {
                    "call_s_p50": {"value": t, "unit": "s"},
                    "host_mtps": {"value": 10.0 + 0.01 * i,
                                  "unit": "Mtuples/s"},
                    CALIBRATION: {"value": calibration, "unit": "s"},
                    # Only "steady" changes its modeled seconds.
                    "hw.modeled_s": {"value": modeled if w == "steady"
                                     else 1.0, "unit": "sim_s"},
                    # Varies with time, so it is not a model count.
                    "bench.timed_calls": {"value": 10 + i, "unit": "count"},
                }
                out.append({"workload": w, "seed": 1, "trace": 0,
                            "correct": True, "attempted": 1, "failed": 0,
                            "metrics": metrics})
        return out

    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for name, recs in (("base", runs(base_times, 0.050, 2.0)),
                           ("new", runs(new_times, 0.060, 2.5))):
            files[name] = os.path.join(tmp, name + ".json")
            with open(files[name], "w") as f:
                json.dump({"runs": recs}, f)
        with open(os.devnull, "w") as sink:
            rows, changes, warnings = compare(
                bench, load_runs([files["base"]]), load_runs([files["new"]]),
                out=sink)
    got = {(w, m): v for w, m, v in rows}
    failures = [f"{k}: got {got.get(k)}, expected {v}"
                for k, v in expected.items() if got.get(k) != v]
    if len(changes) != 1 or "steady seed=1 hw.modeled_s" not in changes[0]:
        failures.append(f"model changes: {changes}")
    if len(warnings) != 1:
        failures.append(f"calibration warnings: {warnings}")
    for f in failures:
        print(f"self-test FAIL {f}")
    print(f"compare.py self-test: {'FAIL' if failures else 'PASS'}")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(
        description="Compare two sets of gjoin end-to-end benchmark runs.")
    parser.add_argument("--base", nargs="+", help="record files of the parent")
    parser.add_argument("--new", nargs="+", help="record files of the change")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.base or not args.new:
        parser.error("--base and --new are required")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    rows, changes, _ = compare(bench, load_runs(args.base), load_runs(args.new))
    return 1 if changes or any(v == "regressed" for _, _, v in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
