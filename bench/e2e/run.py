#!/usr/bin/env python3
"""Build and run the gjoin end-to-end benchmark (see README.md here).

One workload, the form BENCHMARK.json's "command" uses:

    python3 bench/e2e/run.py --workload ingpu_uniform --seed 1 \\
        --seconds 10 --trace 0

prints every metric by name and unit, writes the run's full record to
out/bench/<workload>.json, and prints as its last line one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 reports
the end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones
and writes a Perfetto-loadable trace to out/bench/traces/<workload>.json.

Without --workload every workload runs, each in a fresh process.
--smoke runs every workload at tiny sizes, traced and untraced, and
checks that each metric BENCHMARK.json names is emitted with its unit.

Exit status: 0 on success, 1 when a result is wrong or a run fails,
2 on bad arguments or when the gjoin sources are not there to build.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_DIR = os.path.join(ROOT, "build-e2e")
OUT_DIR = os.path.join(ROOT, "out", "bench")

# Host pool width of every run (GJOIN_CPU_THREADS); the driver refuses
# to report at any other width.
POOL_WIDTH = 2
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
SMOKE_BUDGET_S = 20


def die(code, message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(2, f"cannot read {path}: {e}")


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build_driver():
    """Configures (once) and builds build-e2e/gjoin_e2e from the checkout."""
    for needed in ("CMakeLists.txt", "src", os.path.join("bench", "common.cc")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            die(2, f"cannot build the driver: {needed} is missing next to "
                   "the benchmark")
    if shutil.which("cmake") is None:
        die(2, "cannot build the driver: cmake not found")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    # Compiler scratch files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in steps:
        try:
            code, _ = run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr,
                                env=env)
        except subprocess.TimeoutExpired:
            die(1, f"build timed out: {' '.join(cmd)}")
        if code != 0:
            die(1, f"build failed ({code}): {' '.join(cmd)}")
    return os.path.join(BUILD_DIR, "gjoin_e2e")


def run_driver(driver, workload, seed, seconds, trace_dir=None, smoke=False,
               reps=None):
    """Runs one workload in a fresh driver process; returns its record."""
    env = dict(os.environ)
    env["GJOIN_CPU_THREADS"] = str(POOL_WIDTH)
    env.pop("GJOIN_FULL_SCALE", None)
    cmd = [driver, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}"]
    if reps is not None:
        cmd.append(f"--reps={reps}")
    if trace_dir:
        cmd.append(f"--trace_dir={trace_dir}")
    if smoke:
        cmd.append("--smoke")
    try:
        code, out = run_group(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                              text=True, env=env)
    except subprocess.TimeoutExpired:
        die(1, f"{workload}: driver timed out after {RUN_TIMEOUT_S} s")
    if code == 3:
        # Wrong result, wrong strategy or modeled drift between calls.
        return {"workload": workload, "seed": seed, "correct": False,
                "attempted": 1, "failed": 1, "metrics": {},
                "trace": 1 if trace_dir else 0}
    if code != 0:
        die(1, f"{workload}: driver exited with status {code}")
    lines = [l for l in out.splitlines() if l.startswith("RESULT ")]
    if not lines:
        die(1, f"{workload}: driver printed no RESULT line")
    record = json.loads(lines[-1][len("RESULT "):])
    record["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in record["metrics"].items()}
    record["trace"] = 1 if trace_dir else 0
    return record


def required_metrics(bench, trace):
    return bench["per_layer"] if trace else bench["end_to_end"]


def check_metrics(bench, record, trace):
    """Names every BENCHMARK.json metric the record lacks or mislabels."""
    problems = []
    for spec in required_metrics(bench, trace):
        got = record["metrics"].get(spec["name"])
        if got is None:
            problems.append(f"{spec['name']}: not emitted")
        elif got["unit"] != spec["unit"]:
            problems.append(f"{spec['name']}: unit {got['unit']}, "
                            f"BENCHMARK.json says {spec['unit']}")
    return problems


def print_table(record):
    print(f"# {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} attempted={record['attempted']} "
          f"failed={record['failed']} correct={record['correct']}")
    for name, m in record["metrics"].items():
        print(f"{record['workload']:18s} {name:32s} {m['value']:>16.6g} "
              f"{m['unit']}")


def write_records(path, records):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        json.dump({"runs": records}, f, indent=1)
        f.write("\n")


def contract_line(bench, record, trace):
    metrics = {}
    for spec in required_metrics(bench, trace):
        got = record["metrics"].get(spec["name"])
        if got is not None:
            metrics[spec["name"]] = {"value": got["value"],
                                     "unit": spec["unit"]}
    return json.dumps({"correct": record["correct"],
                       "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def smoke(bench, driver):
    start = time.monotonic()
    problems = []
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as traces:
        for w in bench["workloads"]:
            for trace in (0, 1):
                record = run_driver(driver, w["name"], seed=1, seconds=0,
                                    trace_dir=traces if trace else None,
                                    smoke=True, reps=2)
                where = f"{w['name']} trace={trace}"
                if not record["correct"]:
                    problems.append(f"{where}: wrong result")
                    continue
                problems += [f"{where}: {p}"
                             for p in check_metrics(bench, record, trace)]
                if trace:
                    path = os.path.join(traces, w["name"] + ".json")
                    try:
                        with open(path) as f:
                            events = json.load(f)["traceEvents"]
                        if not any(e.get("ph") == "X" for e in events):
                            problems.append(f"{where}: trace has no spans")
                    except (OSError, ValueError, KeyError) as e:
                        problems.append(f"{where}: bad trace {path}: {e}")
                print(f"smoke {where}: {len(record['metrics'])} metrics")
    elapsed = time.monotonic() - start
    if elapsed > SMOKE_BUDGET_S:
        problems.append(f"smoke took {elapsed:.1f} s (budget "
                        f"{SMOKE_BUDGET_S} s)")
    for p in problems:
        print(f"smoke FAIL {p}")
    print(f"smoke: {'FAIL' if problems else 'PASS'} in {elapsed:.1f} s")
    return 1 if problems else 0


def main():
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(
        description="Build and run the gjoin end-to-end benchmark.")
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=1,
                        help="derives every relation seed (default 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced run reporting per-layer metrics")
    parser.add_argument("--trace-dir", default=os.path.join(OUT_DIR, "traces"),
                        help="where --trace 1 writes <workload>.json")
    parser.add_argument("--out", default=None,
                        help="record file (default out/bench/<workload>.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at tiny sizes; checks metrics")
    parser.add_argument("--driver", default=None,
                        help="use this driver binary instead of building")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    if not 0 <= seconds <= 60:
        parser.error("--seconds must be within [0, 60]")

    driver = args.driver or build_driver()
    if args.smoke:
        return smoke(bench, driver)

    workloads = [args.workload] if args.workload else names
    records = []
    for w in workloads:
        record = run_driver(driver, w, args.seed, seconds,
                            trace_dir=args.trace_dir if args.trace else None)
        records.append(record)
        print_table(record)
        problems = check_metrics(bench, record, args.trace)
        if record["correct"] and problems:
            die(1, f"{w}: " + "; ".join(problems))
    out = args.out or os.path.join(
        OUT_DIR, (args.workload or "all") + ".json")
    write_records(out, records)
    if args.workload:
        print(contract_line(bench, records[0], args.trace))
    ok = all(r["correct"] and r["failed"] == 0 for r in records)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
