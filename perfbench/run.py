#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds perfbench/ (the simulator libraries
from src/ plus the benchmark driver) into .bench_build/perfbench; later
calls rebuild only what changed.  Build output goes to stderr, so the last
line of stdout is perfbench_main's JSON result.  perfbench_main runs in the
build directory, so with --trace 1 the traced rounds' spans are written to
.bench_build/perfbench/spans/<workload>-seed<N>.jsonl.

Workloads: paper-cbr, paper-vbr, incast-shared, torus-fabric (see
perfbench/README.md).  --tiny runs a workload at smoke-test size.
"""

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench_main"
# A run overshoots --seconds by at most one round (with its sharded runs on
# torus-fabric's traced pass); this margin keeps a stuck run from hanging its
# caller.
RUN_MARGIN_S = 145


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources at {ROOT / 'src'}; run from a full checkout")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    build()
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
    if args.tiny:
        command.append("--tiny")

    sys.stdout.flush()
    started = time.monotonic()
    timeout = args.seconds + RUN_MARGIN_S
    try:
        result = subprocess.run(command, cwd=BUILD_DIR, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {timeout:.0f} s", code=1)
    if result.returncode != 0:
        fail(f"benchmark exited with status {result.returncode} after "
             f"{time.monotonic() - started:.1f} s", code=1)


if __name__ == "__main__":
    main()
