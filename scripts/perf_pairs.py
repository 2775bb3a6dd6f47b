#!/usr/bin/env python3
"""Alternating parent/change pairs of perfbench runs, and a verdict per metric.

    python3 scripts/perf_pairs.py [--parent REV] [--change REV|.] \
        [--workloads W[,W...]] [--first-seed N] [--pairs K] \
        [--seconds S] [--trace 0|1]

Run from the repository root. `--parent` (default HEAD) and `--change`
(default `.`, the checkout as it is, uncommitted edits included) each get
their own working tree: a revision is exported with `git archive` into
.perf_pairs/parent or .perf_pairs/change, and reused while it still holds
the same commit, so later invocations build incrementally. Each tree's
perfbench is configured and built once, before the first pair, with the
commands perfbench/run.py uses (build output on stderr); every run then
starts that binary directly, as run.py would.

For every workload it then runs K pairs on seeds N, N+1, ..., N+K-1. Pair i
runs both trees on the same seed, parent first on even i and change first
on odd i, so slow drift of the host cancels. Every run's JSON result must
be correct.

Per workload and metric it prints the parent and change medians, the gap,
the parent's IQR (statistics.quantiles, n=4), how many pairs the change
won, in the direction BENCHMARK.json gives, and the two-sided sign-test
p-value of that win count (tied pairs excluded). The verdict is "moved
better" or "moved worse" when the gap between the medians exceeds the
parent's IQR; "consistent better" or "consistent worse" when it does not
but the sign test rejects a fair coin (p < 0.05), which is how a steady
loss smaller than the run-to-run spread shows; "within noise" otherwise;
and "too few pairs" for a single pair, which has no spread. The header
line names the host's AVX-family CPU flags, since the fast kernel tier
picks its GEMM tiles by them (AVX-512, AVX2+FMA or portable) and results
from hosts with different vector units differ. Exits 1 when a build or run
fails.
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

WORKDIR = ".perf_pairs"
SIGN_ALPHA = 0.05


def export(rev, dest):
    """A working tree of `rev` at dest (kept while it holds the same
    commit); `.` is the checkout itself."""
    if rev == ".":
        return os.getcwd(), "worktree"
    done = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                          stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit("perf_pairs: unknown revision %s" % rev)
    sha = done.stdout.strip()
    stamp = os.path.join(dest, ".perf_pairs_rev")
    if not (os.path.exists(stamp) and open(stamp).read() == sha):
        shutil.rmtree(dest, ignore_errors=True)
        os.makedirs(dest)
        archive = subprocess.Popen(["git", "archive", sha],
                                   stdout=subprocess.PIPE)
        untar = subprocess.run(["tar", "-x", "-C", dest],
                               stdin=archive.stdout)
        archive.stdout.close()
        if archive.wait() != 0 or untar.returncode != 0:
            sys.exit("perf_pairs: cannot export %s" % rev)
        with open(stamp, "w") as f:
            f.write(sha)
    return dest, sha[:10]


def host_avx_flags():
    """The CPU's avx*/fma flags from /proc/cpuinfo, or "unknown"."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("flags"):
                    flags = line.split(":", 1)[1].split()
                    return " ".join(sorted(
                        x for x in flags if x.startswith("avx") or x == "fma"))
    except OSError:
        pass
    return "unknown"


def build(tree):
    """Configures and builds `tree`'s perfbench into the directory
    perfbench/run.py uses; returns the binary."""
    tree = os.path.abspath(tree)
    build_dir = os.path.join(tree, ".bench_build", "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", os.path.join(tree, "perfbench"), "-B",
                 build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", build_dir, "--target", "perfbench",
                 "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            sys.exit("perf_pairs: build step failed in %s: %s"
                     % (tree, " ".join(cmd)))
    return os.path.join(build_dir, "perfbench")


def run(tree, binary, workload, seed, seconds, trace):
    """Metric name -> value of one run of `tree`'s perfbench binary."""
    done = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", str(trace)],
        cwd=tree, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if done.returncode != 0 or not result.get("correct"):
        sys.exit("perf_pairs: %s seed %d failed in %s (exit %d)"
                 % (workload, seed, tree, done.returncode))
    return {k: v["value"] for k, v in result["metrics"].items()}


def directions(tree):
    """Metric name -> True when higher is better (BENCHMARK.json)."""
    path = os.path.join(tree, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    spec = json.load(open(path))
    return {m["name"]: m["better"] == "higher"
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def sign_test_p(wins, losses):
    """Two-sided sign-test p-value of `wins` against `losses` (ties already
    left out): the chance that a fair coin splits wins + losses tosses at
    least this unevenly."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2 ** n)


def report(workload, parent_runs, change_runs, higher):
    print("\n%s: %d pairs" % (workload, len(parent_runs)))
    print("%-34s %12s %12s %8s %11s %6s %7s  %s" % (
        "metric", "parent_med", "change_med", "gap", "parent_IQR", "wins",
        "p_sign", "verdict"))
    for name in parent_runs[0]:
        pv = [r[name] for r in parent_runs]
        cv = [r[name] for r in change_runs]
        pmed, cmed = statistics.median(pv), statistics.median(cv)
        up = higher.get(name, False)
        wins = sum(1 for p, c in zip(pv, cv) if (c > p if up else c < p))
        losses = sum(1 for p, c in zip(pv, cv) if (c < p if up else c > p))
        p_sign = sign_test_p(wins, losses)
        gap = cmed - pmed
        rel = "%+.1f%%" % (100.0 * gap / pmed) if pmed else "-"
        if len(pv) < 2:  # one run has no spread to compare the gap against
            print("%-34s %12.6g %12.6g %8s %11s %3d/%-2d %7.3g  too few pairs"
                  % (name, pmed, cmed, rel, "-", wins, len(pv), p_sign))
            continue
        q = statistics.quantiles(pv, n=4)
        iqr = q[2] - q[0]
        if abs(gap) > iqr:
            verdict = "moved " + ("better" if (gap > 0) == up else "worse")
        elif p_sign < SIGN_ALPHA:
            verdict = "consistent " + ("better" if wins > losses else "worse")
        else:
            verdict = "within noise"
        print("%-34s %12.6g %12.6g %8s %11.4g %3d/%-2d %7.3g  %s" % (
            name, pmed, cmed, rel, iqr, wins, len(pv), p_sign, verdict))


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--parent", default="HEAD")
    ap.add_argument("--change", default=".")
    ap.add_argument("--workloads", default="train_chimera,train_dp_eager,"
                    "decode_mixed,serve_score")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    seeds = range(args.first_seed, args.first_seed + args.pairs)

    parent, parent_id = export(args.parent, os.path.join(WORKDIR, "parent"))
    change, change_id = export(args.change, os.path.join(WORKDIR, "change"))
    higher = directions(change)
    print("perf_pairs: parent=%s change=%s seconds=%g trace=%d seeds=%s"
          % (parent_id, change_id, args.seconds, args.trace,
             ",".join(map(str, seeds))))
    print("perf_pairs: host flags: %s" % (host_avx_flags() or "no avx"),
          flush=True)
    binaries = {parent: build(parent), change: build(change)}

    for workload in args.workloads.split(","):
        parent_runs, change_runs = [], []
        for i, seed in enumerate(seeds):
            order = [(parent, parent_runs), (change, change_runs)]
            if i % 2:
                order.reverse()
            for tree, runs in order:
                runs.append(run(tree, binaries[tree], workload, seed,
                                args.seconds, args.trace))
            print("  %s pair %d seed %d: %s" % (
                workload, i + 1, seed, "  ".join(
                    "%s %.6g -> %.6g" % (k, parent_runs[-1][k],
                                         change_runs[-1][k])
                    for k in parent_runs[-1])), flush=True)
        report(workload, parent_runs, change_runs, higher)
    return 0


if __name__ == "__main__":
    sys.exit(main())
