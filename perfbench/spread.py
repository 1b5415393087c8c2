#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 perfbench/spread.py --workload fattree_ws60 --seeds 10 \
        --seconds 40 [--trace 0]

Runs perfbench/run.py once per seed (1..N, one after another) and prints,
per metric, the median, the quartiles as statistics.quantiles(n=4) gives
them, and their distance as a share of the median: the figure each
end-to-end metric's bound in BENCHMARK.json is judged against.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchlib  # noqa: E402


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(benchlib.WORKLOADS))
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    results = []
    for seed in range(1, args.seeds + 1):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.splitlines()[-1])
        results.append(result)
        print("seed %d: correct=%s failed=%d/%d %s" % (
            seed, result["correct"], result["failed"], result["attempted"],
            {k: v["value"] for k, v in result["metrics"].items()}),
            flush=True)
    print("%-24s %14s %14s %14s %8s" % ("metric", "q1", "median", "q3",
                                        "spread"))
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = benchlib.quartiles(values)
        print("%-24s %14.6g %14.6g %14.6g %8.4f" % (
            name, q1, q2, q3, benchlib.spread(values)))
    if not all(r["correct"] for r in results):
        sys.exit(1)


if __name__ == "__main__":
    main()
