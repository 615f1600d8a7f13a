#!/usr/bin/env python3
"""Builds the what-if benchmark from this checkout's sources and runs it.

    python3 whatifbench/run.py --workload tpcc-chain --seed 1 --seconds 45 --trace 0

Run from the repository root. The first call configures and compiles
whatif_bench (engine libraries included) under .bench_build/whatifbench;
later calls only re-check the build. Compiler output goes to stderr, so the
last line on stdout is always the benchmark's JSON result. The exit code is
the benchmark's: 0 only when every what-if agreed with full-naive.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "whatifbench")
BINARY = os.path.join(BUILD_DIR, "whatif_bench")
# One run must finish within 180 s; leave the process a margin to exit.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds whatif_bench; True on success."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "whatif_bench",
                  "-j", jobs])
    for cmd in steps:
        try:
            result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            print(f"run.py: cannot run {cmd[0]}: {err}", file=sys.stderr)
            return False
        if result.returncode != 0:
            print(f"run.py: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def main(argv):
    if not build():
        return 1
    sys.stdout.flush()
    try:
        result = subprocess.run([BINARY] + argv, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
