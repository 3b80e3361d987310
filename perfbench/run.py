#!/usr/bin/env python3
"""Builds and runs the closed-loop wall-clock benchmark (see README.md).

Usage, from the repository root:
  python3 perfbench/run.py --workload record --seed 1 --seconds 10 --trace 0

The benchmark is configured and built (CMake, Release) under the directory
named by $CARGO_TARGET_DIR, default .bench_build, relative to the repository
root; later runs rebuild incrementally. Build output goes to stderr. The
benchmark binary's stdout is passed through, so its last line is the JSON result. With
--trace 1 the run's Chrome trace is also checked with
tools/check_trace_json.py, and a failed check marks the result incorrect.

Exits non-zero, without printing a result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    build_dir = os.path.join(target, "perfbench")
    out_dir = os.path.join(target, "perfbench-run")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        print(f"perfbench: run failed with code {proc.returncode}",
              file=sys.stderr)
        return 1
    result = json.loads(lines[-1])

    if args.trace:
        trace = os.path.join(out_dir, f"trace-{args.workload}.json")
        check = subprocess.run(
            [sys.executable, os.path.join(ROOT, "tools", "check_trace_json.py"),
             trace], stdout=subprocess.PIPE, text=True)
        lines[-1:-1] = ["# " + l for l in check.stdout.splitlines()]
        if check.returncode != 0:
            result["correct"] = False

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
