#!/usr/bin/env python3
"""Print the two tracked code-size numbers of the simulator.

Usage:
  scripts/src_counts.py [ROOT]

ROOT defaults to the repository this script lives in; pass another
checkout (for example an export of the parent commit) to compare.

  src_lines               lines of src/*/*.cc and src/*/*.h
  nodiscard_entry_points  declarations that follow a [[nodiscard]] line
                          in src/gpujoin/*.h and src/outofgpu/*.h, not
                          counting static members; the same number as
                          grep -A1 -h nodiscard src/gpujoin/*.h
                          src/outofgpu/*.h | grep -v nodiscard
                          | grep -v '^--' | grep -vc static

Informational only: nothing here fails on a threshold.
"""

import glob
import os
import sys


def src_lines(root):
    total = 0
    for pattern in ("src/*/*.cc", "src/*/*.h"):
        for path in glob.glob(os.path.join(root, pattern)):
            with open(path, encoding="utf-8") as f:
                total += sum(1 for _ in f)
    return total


def nodiscard_entry_points(root):
    count = 0
    for pattern in ("src/gpujoin/*.h", "src/outofgpu/*.h"):
        for path in sorted(glob.glob(os.path.join(root, pattern))):
            with open(path, encoding="utf-8") as f:
                lines = f.read().splitlines()
            following = {i + 1 for i, line in enumerate(lines)
                         if "nodiscard" in line and i + 1 < len(lines)}
            for i in following:
                line = lines[i]
                if ("nodiscard" in line or line.startswith("--")
                        or "static" in line):
                    continue
                count += 1
    return count


def main():
    if len(sys.argv) > 2:
        print(__doc__, file=sys.stderr)
        return 2
    root = sys.argv[1] if len(sys.argv) == 2 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    print(f"src_lines {src_lines(root)}")
    print(f"nodiscard_entry_points {nodiscard_entry_points(root)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
