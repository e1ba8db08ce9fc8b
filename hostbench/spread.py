#!/usr/bin/env python3
"""Runs the benchmark once per seed and prints each metric's spread.

    python3 hostbench/spread.py --workload stream_dense [--seeds 1-10] [--seconds 30] [--trace 0]

Run from the repository root; it runs the command in BENCHMARK.json. For every metric it prints the median and the
inter-quartile range as a share of the median (what a spread check over
repeated runs looks at), for the normalised value and, where the run prints
one, for the raw value beside it.
"""

import argparse
import json
import statistics
import subprocess
import sys

with open("BENCHMARK.json") as f:
    COMMAND = json.load(f)["command"]


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("nan")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    norm, raw = {}, {}
    for seed in seeds(args.seeds):
        out = subprocess.run(
            COMMAND + ["--workload", args.workload, "--seed", str(seed),
                       "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, check=False)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"seed {seed}: NOT CORRECT", *[l for l in lines if l.startswith("check failed")], sep="\n  ")
        for name, m in result["metrics"].items():
            norm.setdefault(name, []).append(m["value"])
        for line in lines:
            parts = line.split()
            if len(parts) == 5 and parts[0] in result["metrics"]:
                raw.setdefault(parts[0], []).append(float(parts[3]))
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    print(f"\n{'metric':<26} {'median':>12} {'iqr/med':>8} {'raw median':>12} {'raw iqr/med':>11}")
    for name, values in norm.items():
        med, s = spread(values)
        row = f"{name:<26} {med:>12.4f} {s:>8.4f}"
        if len(raw.get(name, [])) == len(values):
            rmed, rs = spread(raw[name])
            row += f" {rmed:>12.4f} {rs:>11.4f}"
        print(row)


if __name__ == "__main__":
    main()
