#!/usr/bin/env python3
"""Builds and runs the end-to-end exploration benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload cold_explore|warm_explore|feedback_queries|all \
        --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (library sources under src/
plus the benchmark binary) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls only rebuild what changed.  Build output
goes to stderr.  The binary's stdout is passed through, so the last line is
the result JSON.  Exit codes: 0 ok, 1 a correctness check failed, 2 bad
arguments or no library sources, 3 build failure or crash.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("cold_explore", "warm_explore", "feedback_queries", "all")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--points-out", default="",
                        help="write the first repetition's run report (explore workloads)")
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "core", "explorer.hpp")):
        print("perfbench: library sources not found under %s/src" % root, file=sys.stderr)
        return 2

    target_root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    build_dir = os.path.join(target_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            print("perfbench: cmake configure failed", file=sys.stderr)
            return 3
    build = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(build, stdout=sys.stderr).returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.join(target_root, "perfbench-work")]
    if args.points_out:
        command += ["--points-out", args.points_out]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
