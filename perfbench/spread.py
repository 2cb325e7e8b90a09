#!/usr/bin/env python3
"""Run one workload of the benchmark with several seeds and print, per
metric, the median and the spread (distance between the first and third
quartile as a share of the median) next to the metric's bound.

Run from the repository root:

    python3 perfbench/spread.py --workload sim_observed --runs 10 [--first-seed 1]

A benchmark is steady when every end-to-end spread except setup_s is below
its bound (and, with margin, below a third of it).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    cmd = bench["command"]
    values = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        proc = subprocess.run(cmd + ["--workload", args.workload, "--seed", str(seed),
                                     "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        steal = [l for l in proc.stdout.splitlines() if l.startswith("machine:")]
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} {steal[0] if steal else ''}", flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"{'metric':24} {'median':>14} {'spread':>8} {'bound':>6}  values")
    for name, vs in sorted(values.items()):
        med = statistics.median(vs)
        q = statistics.quantiles(vs, n=4)
        spread = (q[2] - q[0]) / med if med else float("nan")
        print(f"{name:24} {med:14.6g} {spread:8.4f} {bounds.get(name, float('nan')):6.3f}  "
              + " ".join(f"{v:.5g}" for v in vs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
