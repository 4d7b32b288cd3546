#!/usr/bin/env python3
"""Steadiness evidence for one servebench workload.

Runs two sets of the benchmark alternately (A B A B ...), every run with its
own seed, and prints for each metric the median, quartiles and min/max of
each set, the spread (interquartile range over median) and the set-A minus
set-B median difference as a share of set A's median. Each run's values go
to stderr as it finishes. The bounds in BENCHMARK.json are set from this
output.

    python3 servebench/steadiness.py --workload hot_reads --runs 10 --seconds 40

Run from the repository root. The binary is built once with cargo (honouring
CARGO_TARGET_DIR) and then run directly.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def build():
    manifest = os.path.join("servebench", "Cargo.toml")
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        check=True,
    )
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join("servebench", "target"))
    return os.path.join(target, "release", "servebench")


def run_once(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=300)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"run {workload} seed {seed} was not correct")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, min(values), max(values), spread


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--bounds", default="BENCHMARK.json",
                    help="file whose end_to_end bounds are printed beside the spreads")
    args = ap.parse_args()

    bounds = {}
    if os.path.exists(args.bounds):
        with open(args.bounds) as f:
            bounds = {m["name"]: m["bound"] for m in json.load(f).get("end_to_end", [])}

    binary = build()
    sets = {"A": [], "B": []}
    for i in range(args.runs):
        for label, offset in (("A", 0), ("B", 1)):
            seed = args.first_seed + 2 * i + offset
            values = run_once(binary, args.workload, seed, args.seconds, args.trace)
            sets[label].append(values)
            print(f"# run {label}{i + 1} seed {seed} {json.dumps(values)}",
                  file=sys.stderr, flush=True)

    names = list(sets["A"][0].keys())
    print(f"workload {args.workload}: {args.runs} runs per set, {args.seconds} s each")
    header = f"{'metric':24} {'set':3} {'median':>12} {'q1':>12} {'q3':>12} " \
             f"{'min':>12} {'max':>12} {'spread':>7} {'bound':>6}"
    print(header)
    for name in names:
        meds = {}
        for label in ("A", "B"):
            values = [r[name] for r in sets[label]]
            med, q1, q3, lo, hi, spread = summary(values)
            meds[label] = med
            bound = bounds.get(name, "")
            print(f"{name:24} {label:3} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{lo:12.6g} {hi:12.6g} {spread:7.3f} {bound!s:>6}")
        diff = (meds["A"] - meds["B"]) / meds["A"] if meds["A"] else float("inf")
        print(f"{'':24} A-B median difference {diff:+.3f}")


if __name__ == "__main__":
    main()
