#!/usr/bin/env python3
"""Build and run the semstm real-hardware benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload hashtable-4t --seed 1 --seconds 30 --trace 0

Builds perfbench/ (which compiles the library from src/) as a Release build
into .bench_build/perfbench, runs the benchmark binary, and repeats its
output. The last line of standard output is the result JSON object.
"""

import argparse
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("hashtable-4t", "bank-4t", "vacation-1t")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
TIME_LIMIT_S = 170  # the whole run, build excluded


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench"],
    ]
    for cmd in steps:
        # Build logs go to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in [1, 120]")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    binary = build(root, os.path.join(root, ".bench_build", "perfbench"))

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {TIME_LIMIT_S} s")
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last line of benchmark output is not JSON: " + lines[-1])
    if set(result) != RESULT_KEYS:
        fail("result has keys " + ", ".join(sorted(result)))
    print(f"# run took {time.monotonic() - start:.1f} s")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
