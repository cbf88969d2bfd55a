#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each metric's spread.

Usage (from the repository root):

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1,2,3] [--trace 0|1]

For every workload it runs `perfbench/run.py` once per seed with the
`run_seconds` of BENCHMARK.json, then prints per metric the median, the
inter-quartile distance (statistics.quantiles, n=4) as a share of the median,
and the bound from BENCHMARK.json.  A run that is not correct, exits non-zero
or prints no result aborts the script.  Raw results go to --out as JSON lines.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = json.load(open(os.path.join(root, "BENCHMARK.json")))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    out = open(args.out, "a") if args.out else None
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds.split(","):
            proc = subprocess.run(
                [sys.executable, os.path.join(root, "perfbench", "run.py"),
                 "--workload", workload, "--seed", seed, "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            if proc.returncode != 0 or not result or not result["correct"]:
                print("%s seed %s failed (exit %d)" % (workload, seed, proc.returncode))
                return 1
            runs.append(result["metrics"])
            if out:
                out.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
                out.flush()
        print("%s (%d seeds)" % (workload, len(runs)))
        for name in runs[0]:
            values = [run[name]["value"] for run in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            if bound and name != "setup_s":
                worst = max(worst, spread / bound)
            print("  %-26s median %14.6g  spread %7.4f  bound %s" % (name, med, spread, bound))
    print("largest spread / bound (setup_s excluded): %.3f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
