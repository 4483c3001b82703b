#!/usr/bin/env python3
"""Run every paper-figure bench binary and collect its CSV rows.

Usage:
  scripts/run_figures.py [--build-dir BUILD] [--out-dir OUT]
                         [--only REGEX] [--divisor N] [--strict]
                         [--timings] [--trace-dir DIR] [--compare DIR]

Discovers bench binaries from bench/*.cc (fig*, abl_*) and runs the
same-named executables from --build-dir sequentially (the benches are
CPU-bound functional simulations; parallel runs just fight for cores and
garble timing-free output ordering). Per bench, stdout is saved to
OUT/<name>.txt, the figure,series,x,value rows to OUT/<name>.csv, and
everything to OUT/all_figures.csv.

--timings additionally writes OUT/timings.json: per-bench wall-clock
seconds, peak RSS in MB (the bench process's own, from os.wait4's
rusage) and the divisor each bench ran at, the measurement behind the
README's "Full-scale timings" table. Timings are always collected; the
flag only controls writing the JSON.

--trace-dir DIR passes --trace_dir=DIR to every bench: session benches
dump Chrome-trace JSON timelines there (viewable at ui.perfetto.dev).
Tracing is charge-free — CSV rows are byte-identical with or without it.

--compare DIR byte-compares each bench's OUT/<name>.csv against
DIR/<name>.csv (the --out-dir of an earlier run, e.g. at the parent
commit) and prints every figure whose CSV differs or is missing on
either side. This is the check a change that must not move the model
runs: every figure CSV at the default divisors stays byte-identical.

  git archive HEAD~1 | tar -x -C /tmp/parent   # build it into /tmp/parent/build
  scripts/run_figures.py --build-dir /tmp/parent/build --out-dir /tmp/fig_parent
  scripts/run_figures.py --compare /tmp/fig_parent

Exit status: 1 if any bench exited non-zero (with --strict, benches
themselves exit non-zero when a shape check fails) or, with --compare,
any figure's CSV differs; else 0.
"""

import argparse
import csv
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import threading
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def discover_benches(only: str) -> list[str]:
    names = sorted(
        src.stem
        for pattern in ("fig*.cc", "abl_*.cc")
        for src in (REPO_ROOT / "bench").glob(pattern)
    )
    if only:
        names = [n for n in names if re.search(only, n)]
    return names


def run_bench(cmd: list[str], timeout: int):
    """Runs cmd to completion or until `timeout` seconds pass (then kills
    it). Returns (exit code, or None on timeout; stdout; stderr; peak RSS
    in MB). The output goes through files, not pipes, so the child can be
    reaped with os.wait4, whose rusage holds that child's peak RSS
    alone."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err)
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, rusage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        code = None if timed_out.is_set() else proc.returncode
        return (code, out.read().decode(errors="replace"),
                err.read().decode(errors="replace"), rusage.ru_maxrss / 1024)


def differing_csvs(names: list[str], out_dir: pathlib.Path,
                   ref_dir: pathlib.Path) -> list[str]:
    """Benches whose CSV in out_dir is missing from either directory or
    differs byte for byte from the one in ref_dir."""
    differ = []
    for name in names:
        got, ref = out_dir / f"{name}.csv", ref_dir / f"{name}.csv"
        if not (got.exists() and ref.exists()) or \
                got.read_bytes() != ref.read_bytes():
            differ.append(name)
    return differ


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build",
                        help="CMake build directory with the bench binaries")
    parser.add_argument("--out-dir", default="out/figures",
                        help="where CSV/log outputs are written")
    parser.add_argument("--only", default="",
                        help="regex filter on bench names")
    parser.add_argument("--divisor", type=int, default=0,
                        help="override every bench's default divisor")
    parser.add_argument("--strict", action="store_true",
                        help="pass --strict: a failed shape check fails "
                             "the bench (and this script)")
    parser.add_argument("--timings", action="store_true",
                        help="write per-bench wall-clock seconds to "
                             "OUT/timings.json")
    parser.add_argument("--trace-dir", default="",
                        help="dump Chrome-trace JSON session timelines "
                             "into this directory")
    parser.add_argument("--compare", default="",
                        help="byte-compare every bench's CSV against "
                             "DIR/<name>.csv and fail if any differs")
    parser.add_argument("--timeout", type=int, default=3600,
                        help="per-bench timeout in seconds")
    args = parser.parse_args()

    build_dir = pathlib.Path(args.build_dir)
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.trace_dir:
        pathlib.Path(args.trace_dir).mkdir(parents=True, exist_ok=True)

    benches = discover_benches(args.only)
    if not benches:
        print("no benches matched", file=sys.stderr)
        return 1

    all_rows = []
    failures = []
    checks_failed = 0
    timings = {}
    for name in benches:
        binary = build_dir / name
        if not binary.exists():
            print(f"SKIP {name}: {binary} not built", file=sys.stderr)
            failures.append(name)
            continue
        cmd = [str(binary)]
        if args.divisor > 0:
            cmd.append(f"--divisor={args.divisor}")
        if args.strict:
            cmd.append("--strict")
        if args.trace_dir:
            cmd.append(f"--trace_dir={args.trace_dir}")
        print(f"RUN  {' '.join(cmd)}", flush=True)
        start = time.monotonic()
        returncode, stdout, stderr, peak_rss_mb = run_bench(cmd,
                                                            args.timeout)
        if returncode is None:
            # Keep whatever the bench printed before hanging — that is
            # exactly the log one needs to debug it.
            (out_dir / f"{name}.txt").write_text(
                stdout + stderr + f"\nFAIL: timeout after {args.timeout}s\n")
            print(f"FAIL {name}: timeout after {args.timeout}s",
                  file=sys.stderr)
            failures.append(name)
            continue
        (out_dir / f"{name}.txt").write_text(stdout + stderr)
        wall_s = time.monotonic() - start

        rows = []
        divisor = None
        for line in stdout.splitlines():
            if line.startswith("#"):
                m = re.match(r"# divisor=(\d+)", line)
                if m:
                    divisor = int(m.group(1))
                continue
            if line.startswith("CHECK "):
                if line.rstrip().endswith(": FAIL"):
                    checks_failed += 1
                    print(f"  {line}", flush=True)
                continue
            parts = line.split(",")
            if len(parts) >= 4:
                rows.append(parts)
        with open(out_dir / f"{name}.csv", "w", newline="") as f:
            csv.writer(f).writerows(rows)
        all_rows.extend(rows)

        timings[name] = {"wall_seconds": round(wall_s, 3),
                         "peak_rss_mb": round(peak_rss_mb, 1),
                         "divisor": divisor}
        if returncode != 0:
            print(f"FAIL {name}: exit {returncode}", file=sys.stderr)
            failures.append(name)
        else:
            print(f"OK   {name}: {len(rows)} rows ({wall_s:.1f}s, "
                  f"{peak_rss_mb:.0f} MB)", flush=True)

    if args.timings:
        with open(out_dir / "timings.json", "w") as f:
            json.dump(timings, f, indent=2, sort_keys=True)
            f.write("\n")

    with open(out_dir / "all_figures.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["figure", "series", "x", "value"])
        writer.writerows(all_rows)

    print(f"\n{len(benches) - len(failures)}/{len(benches)} benches ok, "
          f"{len(all_rows)} rows, {checks_failed} shape-check failures "
          f"-> {out_dir}/all_figures.csv")
    status = 0
    if failures:
        print("failed: " + ", ".join(failures), file=sys.stderr)
        status = 1
    if args.compare:
        differ = differing_csvs(benches, out_dir, pathlib.Path(args.compare))
        for name in differ:
            print(f"DIFF {name}: {out_dir / name}.csv vs "
                  f"{pathlib.Path(args.compare) / name}.csv", file=sys.stderr)
        print(f"{len(benches) - len(differ)}/{len(benches)} figure CSVs "
              f"byte-identical to {args.compare}")
        if differ:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
