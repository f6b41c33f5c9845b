#!/usr/bin/env python3
"""Build and run the BLOCKWATCH end-to-end benchmark.

    python3 perfbench/run.py --workload protect|campaign|build --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Configures and builds perfbench/ (which compiles the library from the
repository's src/) into .bench_build/perfbench at the repository root, then
runs bw_perfbench with the given arguments from the root. The benchmark's
last line of standard output is its JSON result; build output goes to
standard error. A traced run (--trace 1) also writes its spans to
.bench_trace/<workload>-seed<N>.json. --selftest runs the benchmark's own
test, which plants a wrong answer in front of every correctness check.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_trace")
# A measured run takes --seconds plus a few seconds of set-up; anything far
# beyond that is a hang.
RUN_TIMEOUT_S = 170


def build(target):
    """Configure once, then build `target`; build output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(os.cpu_count() or 1, 4))
    cmd = ["cmake", "--build", BUILD, "--target", target, "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["protect", "campaign", "build"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        if not build("bw_perfbench_selftest"):
            return 2
        return subprocess.run(
            [os.path.join(BUILD, "bw_perfbench_selftest")], cwd=ROOT).returncode

    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")
    if not build("bw_perfbench"):
        return 2
    cmd = [os.path.join(BUILD, "bw_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        cmd += ["--trace-file", os.path.join(
            TRACE_DIR, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("bw_perfbench: no result within %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
