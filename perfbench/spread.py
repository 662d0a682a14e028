#!/usr/bin/env python3
"""Runs one workload under several seeds and reports each end-to-end
metric's median and quartile spread (Q3 - Q1 over the median), next to the
bound BENCHMARK.json fixes for it.

    python3 perfbench/spread.py --workload service_mix --runs 10
    python3 perfbench/spread.py --workload explore_mix --runs 5 --first-seed 100
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    values = {}
    for run in range(args.runs):
        seed = args.first_seed + run
        out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                              args.workload, "--seed", str(seed), "--seconds", str(seconds),
                              "--trace", "0"], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if out.returncode != 0 or not result["correct"]:
            print("seed %d: run failed (exit %d)" % (seed, out.returncode))
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d: %s" % (seed, " ".join("%s=%.4g" % (k, v["value"])
                                              for k, v in result["metrics"].items())),
              flush=True)

    worst = 0.0
    for metric in spec["end_to_end"]:
        name = metric["name"]
        series = values.get(name, [])
        if len(series) < 2:
            continue
        q1, _, q3 = statistics.quantiles(series, n=4)
        median = statistics.median(series)
        spread = (q3 - q1) / median
        if name != "setup_s":
            worst = max(worst, spread / metric["bound"])
        print("%-14s median %-12.5g spread %.3f  bound %.2f  (%.0f%% of bound)"
              % (name, median, spread, metric["bound"], 100 * spread / metric["bound"]))
    print("worst spread / bound (setup_s excluded): %.2f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())
