#!/usr/bin/env python3
"""Builds and runs the served-workload benchmark.

    python3 hgbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first run configures and builds
hgbench/ (the HyGraph libraries from src/ plus the benchmark) into
.bench_build/hgbench in Release mode; later runs only rebuild what changed.
The benchmark's self-tests run before every run. The last line of standard
output is the benchmark's JSON result; the exit code is non-zero when the
build, a self-test or the run fails, or when an answer was wrong or an
acknowledged write was lost.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "hgbench")
WORKLOADS = ("table1_solo", "table1_crowd", "ingest_mixed")
# The first run builds before it measures; a run itself ends well within
# this limit.
RUN_TIMEOUT_S = 170


def step(cmd, timeout=None):
    """Runs a build step with its output on stderr; True on success."""
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: {' '.join(cmd)}: {e}", file=sys.stderr)
        return False


def git_describe():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable(not-a-git-checkout)"
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
        return out.stdout.strip() or "unavailable"
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no HyGraph sources (src/) in this checkout",
              file=sys.stderr)
        return 2
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not step(["cmake", "-S", "hgbench", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]):
            return 2
    if not step(["cmake", "--build", BUILD_DIR, "-j", jobs]):
        return 2
    if not step([os.path.join(BUILD_DIR, "hgbench_selftest")], timeout=60):
        return 1

    name = f"{args.workload}-{args.seed}"
    cmd = [os.path.join(BUILD_DIR, "hgbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(".bench_build", "run",
                                     f"{name}-{os.getpid()}"),
           "--git-describe", git_describe()]
    if args.trace:
        os.makedirs(os.path.join(ROOT, ".bench_build", "traces"),
                    exist_ok=True)
        cmd += ["--spans", os.path.join(".bench_build", "traces",
                                        f"{name}.jsonl")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
