#!/usr/bin/env python3
"""Exact-repeat check for the benchmark's counts.

    python3 whatifbench/test_counts_repeat.py [--seed N]

For a fixed seed, the counts of one what-if on each workload's set-up
snapshot (plan size, suffix size, replayed slots, critical path, conflict-DAG
edges, staged tables) must be identical across two runs, and the selective
universe must match full-naive. Later changes may cite these numbers as
counts only because this holds. Exits non-zero on any difference.
"""
import argparse
import json
import subprocess
import sys

import run

WORKLOADS = ["epinions-prune", "tpcc-chain", "tatp-mixed"]


def counts(workload, seed):
    out = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed), "--counts"],
        capture_output=True, text=True, timeout=run.RUN_TIMEOUT_S, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    if not run.build():
        return 1
    failed = False
    for workload in WORKLOADS:
        first, second = counts(workload, args.seed), counts(workload, args.seed)
        ok = first == second and first["matches_naive"]
        failed |= not ok
        print(f"{'ok  ' if ok else 'FAIL'} {workload}: {first}")
        if first != second:
            print(f"     second run: {second}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
