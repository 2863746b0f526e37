#!/usr/bin/env python3
"""End-to-end SCI benchmark runner.

Builds the benchmark binary from the middleware sources (Release, into
.bench_build/ at the repository root) and runs one workload:

    python3 perfbench/run.py --workload publish_fanout --seed 1 \
        --seconds 10 --trace 0

Run it from the repository root. Build output goes to stderr; the binary's
report goes to stdout, whose last line is one JSON object. The exit code is
the binary's (non-zero when a correctness check fails), or 2 when the build
or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(os.getcwd(), ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "sci_perfbench")
RUN_TIMEOUT_S = 170


def build():
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", "4"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            return False
    return os.path.isfile(BINARY)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["publish_fanout", "publish_fanout_800",
                                 "query_churn", "campus_churn"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 2
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
