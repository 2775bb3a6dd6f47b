#!/usr/bin/env python3
"""Build perfbench from the checkout's sources, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the repository root. The build goes to .bench_build/perfbench
(incremental after the first run); build output goes to stderr so the last
line of stdout stays the benchmark's JSON result. Exits non-zero without a
result when the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.getcwd(), ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    cmd_configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    jobs = str(min(4, os.cpu_count() or 1))
    cmd_build = ["cmake", "--build", BUILD, "--target", "perfbench",
                 "-j", jobs]
    for cmd in (cmd_configure, cmd_build):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(cmd))
            return False
    return True


def main():
    if not build():
        return 1
    return subprocess.run([BINARY] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
