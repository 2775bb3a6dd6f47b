#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--seconds 2]

Run from the repository root. For every workload in BENCHMARK.json it
checks that

  * a short untraced run prints, as its last line, a JSON result with
    exactly the keys correct/attempted/failed/metrics, correct = true, and
    exactly the end-to-end metrics of BENCHMARK.json with their units, each
    a finite number above 0;
  * a short traced run prints exactly the per-layer metrics with their
    units;
  * a run with --corrupt 1 (one checked output corrupted: a loss, a
    generated token or a logit) is rejected: correct = false, at least one
    failed operation, and a non-zero exit code.

Exits non-zero if any check fails.
"""
import argparse
import json
import math
import subprocess
import sys


def run(workload, seconds, trace, corrupt=False):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", str(seconds), "--trace",
           "1" if trace else "0"]
    if corrupt:
        cmd += ["--corrupt", "1"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return done.returncode, result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=int, default=2)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    failures = []

    def expect(ok, what):
        print("%s  %s" % ("ok  " if ok else "FAIL", what), flush=True)
        if not ok:
            failures.append(what)

    for w in (x["name"] for x in bench["workloads"]):
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            code, res = run(w, args.seconds, trace)
            tag = "%s --trace %d" % (w, trace)
            expect(code == 0 and res is not None, tag + ": exit 0 with result")
            if res is None:
                continue
            expect(sorted(res) == ["attempted", "correct", "failed", "metrics"]
                   and res["correct"] is True and res["failed"] == 0
                   and res["attempted"] >= 1, tag + ": correct result")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {n: m["unit"] for n, m in res["metrics"].items()}
            expect(got == want, tag + ": every %s metric with its unit" % key)
            values = [m["value"] for m in res["metrics"].values()]
            expect(all(isinstance(v, (int, float)) and math.isfinite(v)
                       for v in values), tag + ": finite values")
            if not trace:
                expect(all(v > 0 for v in values), tag + ": no metric is 0")
        code, res = run(w, args.seconds, False, corrupt=True)
        expect(code != 0 and res is not None and res["correct"] is False
               and res["failed"] >= 1,
               w + " --corrupt 1: corrupted output rejected")

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
