#!/usr/bin/env python3
"""Compare regenerated Sec. 6 tables with committed goldens.

Usage: check_figures.py GOLDEN_DIR NEW_DIR

Every golden CSV in GOLDEN_DIR must have a regenerated table of the
same name in NEW_DIR with the same header and row count, and every cell
must match exactly. Time is not gated: a table whose title (its file
name) says response time is skipped whole, and so is any column whose
header names ms, ns, time or seconds. Physical I/O, index sizes and plan
choices are deterministic functions of the seeded data, so they compare
exactly. Tables in NEW_DIR without a golden are ignored. Exits 1 if
anything differs, after listing every difference.
"""

import csv
import os
import re
import sys

TIMED = {"ms", "ns", "time", "seconds"}


def read(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def timed(header):
    return bool(TIMED & set(re.split(r"[^a-z]+", header.lower())))


def main(golden_dir, new_dir):
    problems = []
    checked = 0
    names = sorted(n for n in os.listdir(golden_dir) if n.endswith(".csv"))
    if not names:
        problems.append(f"no golden CSV tables in {golden_dir}")
    for name in names:
        if "response_time" in name:
            continue
        fresh = os.path.join(new_dir, name)
        if not os.path.exists(fresh):
            problems.append(f"{name}: not regenerated in {new_dir}")
            continue
        want, got = read(os.path.join(golden_dir, name)), read(fresh)
        if want[:1] != got[:1] or len(want) != len(got):
            problems.append(f"{name}: header or row count differs")
            continue
        keep = [i for i, h in enumerate(want[0]) if not timed(h)]
        for r, (w, g) in enumerate(zip(want[1:], got[1:]), start=1):
            for i in keep:
                if w[i] != g[i]:
                    problems.append(
                        f"{name} row {r} column {want[0][i]!r}: "
                        f"golden {w[i]}, got {g[i]}")
        checked += 1
    for p in problems:
        print("MISMATCH", p)
    print(f"{checked} tables compared, {len(problems)} mismatches")
    return 1 if problems else 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
