#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command of BENCHMARK.json once with each of the seeds 1 to 10
on each named workload (from the repository root) and prints, per
metric, the median and the distance between the first and third
quartile as a share of the median, next to a third of the metric's
bound. A spread above its bound (except
for setup_s) means the benchmark is too noisy to judge a change by.

    python3 perfbench/spread.py detailed-sweep warm-resweep
"""

import argparse
import json
import statistics
import subprocess
import sys

SEEDS = range(1, 11)


def run_once(manifest, workload, seed):
    cmd = manifest["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(manifest["run_seconds"]), "--trace", "0",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs incorrect")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="+")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        manifest = json.load(f)
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    worst = 0.0
    for w in args.workloads:
        runs = [run_once(manifest, w, seed) for seed in SEEDS]
        print(f"{w} ({len(runs)} seeds)")
        for name, bound in bounds.items():
            vals = [r[name] for r in runs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med
            flag = "" if spread < bound / 3 else "  <-- above bound/3"
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:14s} median {med:12.5g}  spread {spread:7.2%}  bound/3 {bound / 3:6.2%}{flag}")
    print(f"worst spread / bound (excluding setup_s): {worst:.2f}")


if __name__ == "__main__":
    main()
