#!/usr/bin/env python3
"""Builds and runs the why-provenance serving benchmark.

Usage (from the repository root):

  python3 provbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 provbench/run.py                 # every workload, end to end
  python3 provbench/run.py --smoke         # every workload, briefly, both
                                           # modes, oracle on; exits 1 on
                                           # any wrong answer or metric

The benchmark compiles the library sources under src/ together with
provbench/src/ into .bench_build/provbench (CMake, Release), then runs
the provbench binary. All build output goes to stderr; the last line of
stdout is the run's JSON result. See provbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "provbench")
BINARY = os.path.join(BUILD, "build", "provbench")
WORKLOADS = ["recursive-hot", "nonrecursive-wide", "churn"]
RUN_TIMEOUT_S = 175
SMOKE_SECONDS = 0.6


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    build_dir = os.path.join(BUILD, "build")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            return False
    return os.path.exists(BINARY)


def git_sha():
    """The checkout's commit from .git, without leaving the checkout."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path) as head:
            ref = head.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as target:
                return target.read().strip()
        return ref
    except OSError:
        return "unknown"


def run(workload, seed, seconds, trace, capture=False):
    """Runs one workload; returns (exit code, stdout text or None)."""
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--scratch", os.path.join(BUILD, "scratch"),
               "--git-sha", git_sha()]
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        print(f"provbench: {workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, None
    return done.returncode, done.stdout


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if present."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
            bench = json.load(spec)
    except (OSError, ValueError):
        return None
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def smoke():
    """Every workload for a fraction of a second in both modes."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run(workload, 1, SMOKE_SECONDS, trace, capture=True)
            lines = (out or "").strip().splitlines()
            result = json.loads(lines[-1]) if code == 0 and lines else None
            problems = []
            if result is None:
                problems.append(f"exit code {code}, no result")
            else:
                if not result["correct"]:
                    problems.append("wrong answers or failed requests")
                expected = expected_metrics(trace) or []
                missing = [m for m in expected if m not in result["metrics"]]
                if missing:
                    problems.append("missing metrics " + ", ".join(missing))
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"smoke {workload} trace={trace}: {status}")
            ok = ok and not problems
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not build():
        print("provbench: build failed", file=sys.stderr)
        return 1
    if args.smoke:
        return smoke()
    workloads = [args.workload] if args.workload else WORKLOADS
    for workload in workloads:
        code, _ = run(workload, args.seed, args.seconds, args.trace)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
