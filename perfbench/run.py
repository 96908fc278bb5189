#!/usr/bin/env python3
"""Repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library and the benchmark driver from source (Release, into
.bench_build/perfbench at the repository root), then runs one workload in a
fresh process. The driver's stdout is passed through: its notes, then, as the
last line, the JSON result. Build output goes to stderr. The exit code is
non-zero when the build fails, the workload's verdicts or exact counts differ
from perfbench/expected.tsv, or the run takes too long.

Workloads: paper_default, paper_allpaths, paper_warm, serve_open (see
perfbench/paper.cpp and perfbench/serve_open.cpp). With --trace 1 the run
also replays its work through each layer's public functions and prints the
per-layer metrics instead of the end-to-end ones; the spans are written to
.bench_build/traces/<workload>.spans.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("paper_default", "paper_allpaths", "paper_warm", "serve_open")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.exists(os.path.join(BUILD, "build.ninja")) and not os.path.exists(
        os.path.join(BUILD, "Makefile")
    ):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release", *generator],
            stdout=sys.stderr,
            check=True,
        )
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "haven_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed % 2**64),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--expected", os.path.join(HERE, "expected.tsv"),
    ]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans", os.path.join(traces, f"{args.workload}.spans")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
