#!/usr/bin/env python3
"""Builds the CIAO benchmark from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

The first call configures and compiles a Release build of the library and
the benchmark program into .bench_build/ (about a minute on 4 cores);
later calls only re-check it. Build output goes to stderr, so the last
line of stdout is the program's JSON result. The exit code is non-zero when the build fails,
an answer is wrong, or the program does not finish in time.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
WORK = os.path.join(BUILD, "work")
RUN_TIMEOUT_S = 170
WORKLOADS = ("ycsb_pushdown", "ycsb_fullload", "winlog_durable")
# Environment that changes what the program does: a hardware profile
# re-seeds the cost model and kernel dispatch, a SIMD mask forces scalar
# fallbacks. Neither may leak into a measurement.
PINNED_ENV = ("CIAO_PROFILE", "CIAO_DISABLE_SIMD")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    step = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 3

    env = dict(os.environ)
    for name in PINNED_ENV:
        env.pop(name, None)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--work-dir", WORK]
    try:
        child = subprocess.run(command, env=env, cwd=ROOT,
                               stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                               text=True)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write(e.stdout.decode() if isinstance(e.stdout, bytes)
                         else (e.stdout or ""))
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4
    lines = child.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        well_formed = set(result) == {"correct", "attempted", "failed",
                                      "metrics"}
    except (ValueError, IndexError):
        well_formed = False
    if not well_formed:
        sys.stderr.write(child.stdout)
        print("perfbench: program printed no result (exit %d)"
              % child.returncode, file=sys.stderr)
        return child.returncode or 5
    sys.stdout.write(child.stdout)
    sys.stdout.flush()
    if child.returncode != 0 or not result["correct"]:
        return child.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
