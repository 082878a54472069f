#!/usr/bin/env python3
"""Build and run the end-to-end interval-server benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mixed-disk --seed 1 --seconds 10 --trace 0

Builds perfbench/e2e.exe (and the libraries it links) from source into
.bench_build, runs it, and checks that the metrics on its last stdout
line are exactly the ones BENCHMARK.json declares for the mode
(end_to_end with --trace 0, per_layer with --trace 1). The benchmark's
server processes run in their own process group, which is killed and
reaped before this script exits, whatever happens.
"""

import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.getcwd()
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "e2e.exe")
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("dune-project", "lib", "bin", "perfbench/dune"):
        if not os.path.exists(os.path.join(ROOT, need)):
            die(f"{need} is missing: run from the root of a full source checkout")
    cmd = ["dune", "build", "--root", ".", "--profile", "release",
           "--build-dir", BUILD_DIR, "--cache", "disabled",
           "./perfbench/e2e.exe"]
    r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0 or not os.path.exists(EXE):
        die("build failed")


def declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in rows}


def kill_group(pgid):
    """SIGKILL every process of the group and wait until none is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def main():
    args = sys.argv[1:]
    trace = "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]
    build()
    proc = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.wait()
        die(f"run exceeded {RUN_TIMEOUT_S} s", 3)
    finally:
        kill_group(proc.pid)
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(out)
        die(f"no result line (exit {proc.returncode})", proc.returncode or 3)
    want = declared(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        die(f"metrics differ from BENCHMARK.json: missing {missing}, "
            f"undeclared {extra}, unit mismatch {units}", 3)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
