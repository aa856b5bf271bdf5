#!/usr/bin/env python3
"""Build and run the designer-flow benchmark.

    python3 flowbench/run.py --workload edit_cycle --seed 1 --seconds 10 --trace 0

Builds flowbench/ (which compiles the framework from src/) into
.bench_build/flowbench with CMake in Release mode, then runs one workload
in its own process. The build log goes to stderr; stdout carries the
benchmark's report, whose last line is the JSON result.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "flowbench"
WORKLOADS = ("edit_cycle", "team_sync", "hier_review")
RUN_TIMEOUT_S = 170


def build() -> bool:
    jobs = str(len(os.sched_getaffinity(0)))
    steps = [
        ["cmake", "-S", str(ROOT / "flowbench"), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", jobs, "--target", "flowbench"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.stderr.write(f"flowbench: build step failed: {' '.join(step)}\n")
            return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not build():
        return 1
    command = [str(BUILD / "flowbench"), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"flowbench: run exceeded {RUN_TIMEOUT_S} s and was stopped\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
