#!/usr/bin/env python3
"""Checks that the benchmark's explore pipeline equals examples/explore.

Usage (from the repository root, after building the repository):

    python3 perfbench/check_explore_parity.py --explore build/explore

Runs `explore --report-out` (default workloads, default seed 42) and the
benchmark's cold_explore and warm_explore workloads at seed 42 with
--points-out, then compares the reports' "points" arrays bit for bit (every
double is written with 17 significant digits).  Exits 1 on any difference.
"""

import argparse
import json
import os
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--explore", required=True, help="path to the built explore example")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    work = os.path.join(root, ".bench_build", "parity")
    os.makedirs(work, exist_ok=True)
    reference = os.path.join(work, "explore-report.json")
    subprocess.run([args.explore, "--report-out", reference], check=True,
                   stdout=subprocess.DEVNULL)
    expected = json.load(open(reference))["points"]

    status = 0
    for workload in ("cold_explore", "warm_explore"):
        points_file = os.path.join(work, workload + "-points.json")
        subprocess.run([sys.executable, os.path.join(root, "perfbench", "run.py"),
                        "--workload", workload, "--seed", "42", "--seconds", "1",
                        "--trace", "0", "--points-out", points_file],
                       check=True, cwd=root, stdout=subprocess.DEVNULL)
        actual = json.load(open(points_file))["points"]
        same = actual == expected
        print("%s: %d points, %s" % (workload, len(actual),
                                     "identical" if same else "DIFFERENT"))
        if not same:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
