#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, one seed per run.

    python3 perfbench/spread.py --workload <name> [--runs 10] [--first-seed 1]

Runs perfbench/run.py once per seed (untraced) and prints, for every
end-to-end metric in BENCHMARK.json, the median of the runs and the distance
between their first and third quartiles (statistics.quantiles, n=4) as a
share of the median, next to a third of the metric's bound. Every result
line is appended to .bench_build/spread.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = p.parse_args()

    log_path = os.path.join(ROOT, ".bench_build", "spread.jsonl")
    values = {m["name"]: [] for m in spec["end_to_end"]}
    failed_runs = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if proc.returncode != 0:
            failed_runs += 1
            print(f"seed {seed}: run.py exited {proc.returncode}", flush=True)
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        with open(log_path, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": seed,
                                "result": result}) + "\n")
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed="
              f"{result['failed']}/{result['attempted']} " +
              " ".join(f"{k}={v:.4g}" for k, v in row.items()), flush=True)
        for name in values:
            values[name].append(row[name])

    print(f"{'metric':14s} {'median':>10s} {'iqr/med':>8s} {'bound/3':>8s}")
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        if len(v) < 2:
            continue
        q1, med, q3 = statistics.quantiles(v, n=4)
        share = (q3 - q1) / med if med else float("inf")
        flag = "" if share < m["bound"] / 3 else "  <-- wide"
        print(f"{m['name']:14s} {med:10.4g} {share:8.4f} "
              f"{m['bound'] / 3:8.4f}{flag}")
    return 1 if failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
