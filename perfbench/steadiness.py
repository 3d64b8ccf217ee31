#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

Runs every workload in BENCHMARK.json once per seed, untraced, and prints
for each end-to-end metric its median, first and third quartile and the
spread (third minus first quartile, over the median) next to the metric's
bound. Run it from the repository root:

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads invert-512,serve-small]

It uses the command and run length from BENCHMARK.json and writes every
run's result line to --out as JSON lines.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def seed_list(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="seed range, as first-last")
    ap.add_argument("--workloads", default="", help="comma-separated subset; default all")
    ap.add_argument("--out", default=".bench_build/steadiness.jsonl", help="where run results are written")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    failed = False
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as out:
        for name in names:
            values = {m: [] for m in bounds}
            for seed in seed_list(args.seeds):
                cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                         "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                run = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
                if run.returncode != 0:
                    print(f"{name} seed {seed}: exit {run.returncode}: {run.stderr.strip()[-300:]}")
                    failed = True
                    continue
                res = json.loads(run.stdout.strip().splitlines()[-1])
                out.write(json.dumps({"workload": name, "seed": seed, **res}) + "\n")
                if not res["correct"] or res["failed"]:
                    print(f"{name} seed {seed}: correct={res['correct']} failed={res['failed']}")
                    failed = True
                for m in bounds:
                    values[m].append(res["metrics"][m]["value"])
            print(f"\n{name}")
            print(f"  {'metric':18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
            for m, xs in values.items():
                if len(xs) < 2:
                    continue
                q1, med, q3 = statistics.quantiles(xs, n=4)
                med = statistics.median(xs)
                spread = (q3 - q1) / med if med else 0.0
                print(f"  {m:18} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} {bounds[m]:6.2f}")
            sys.stdout.flush()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
