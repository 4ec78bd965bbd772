#!/usr/bin/env python3
"""Builds vqbench from the checkout's sources, then runs one workload.

    python3 perfbench/run.py --workload lookup_hot --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the current directory and reuses an existing
build there. Build output goes to stderr, so the last line of stdout stays
the benchmark's JSON result. See perfbench/README.md.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175
BUILD_JOBS = "3"


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build():
    """Configures (once) and builds vqbench; returns its path, or None."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "vqbench", "-j", BUILD_JOBS])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(out, "vqbench")


def main():
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        return subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
