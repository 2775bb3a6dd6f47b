#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload <name> [--runs 10] [--seconds 10]
        [--first-seed 1]

Runs perfbench/run.py once per seed (first-seed, first-seed+1, ...) with
--trace 0 and prints, for every end-to-end metric the text block reports
(gated or not), the median of the runs and the spread: the distance between
the first and third quartile (statistics.quantiles, n=4) as a share of the
median. Host steal share is listed alongside as a diagnostic. Run from the
repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys


def parse(stdout):
    """Metric name -> value from the text blocks of one run."""
    values, block = {}, None
    for line in stdout.splitlines():
        if line.endswith(":") and not line.startswith(" "):
            block = line[:-1]
            continue
        parts = line.split()
        if block in ("end-to-end", "host diagnostics") and len(parts) >= 3 \
                and line.startswith("  "):
            try:
                values[parts[0]] = float(parts[1])
            except ValueError:
                pass
    return values


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    gated = {m["name"]: m["bound"]
             for m in json.load(open("BENCHMARK.json"))["end_to_end"]}
    runs = []
    for i in range(args.runs):
        seed = args.first_seed + i
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if out.returncode != 0 or not result["correct"]:
            sys.exit("seed %d: run failed (exit %d)" % (seed, out.returncode))
        runs.append(parse(out.stdout))
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % kv for kv in sorted(runs[-1].items()))), flush=True)
    print("\n%-22s %14s %8s %8s  %s" % ("metric", "median", "spread", "bound",
                                        "spread/bound"))
    for name in runs[0]:
        vals = [r[name] for r in runs if name in r]
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4)
        spread = (q[2] - q[0]) / med if med else 0.0
        bound = gated.get(name)
        print("%-22s %14.6g %8.4f %8s  %s" % (
            name, med, spread, "-" if bound is None else bound,
            "-" if bound is None else "%.2f" % (spread / bound)))


if __name__ == "__main__":
    main()
