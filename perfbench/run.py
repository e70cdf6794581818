#!/usr/bin/env python3
"""Builds and runs the wire-to-engine benchmark.

    python3 perfbench/run.py --workload edit|solve|durable --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Configures perfbench/CMakeLists.txt (which builds the repository's layer
libraries from ../src) into .bench_build/perfbench at the repository root,
builds it, and runs nsc_perfbench with the given arguments.  Build output
goes to standard error, so the last line of standard output is the
benchmark's JSON result.  Exits non-zero, printing no result, when the
build fails (for example when the repository sources are missing).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "nsc_perfbench")


def build():
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "nsc_perfbench",
                  "-j", jobs])
    for step in steps:
        code = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode
        if code != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return code
    return 0


def main():
    code = build()
    if code != 0:
        return code
    # The NSC_* variables steer pool sizes, lane widths and fault injection;
    # the benchmark fixes its own, so none may leak in from the caller.
    env = {k: v for k, v in os.environ.items() if not k.startswith("NSC_")}
    work = os.path.join(BUILD_ROOT, "perfbench-work")
    return subprocess.run([BINARY, "--work-dir", work] + sys.argv[1:],
                          env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
