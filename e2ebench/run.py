#!/usr/bin/env python3
"""Build and run the end-to-end stack benchmark.

Usage (from the repository root):
    python3 e2ebench/run.py --workload ingest|mixed|churn --seed N \
        --seconds S --trace 0|1

The benchmark is built from the sources in the checkout into
.bench_build/e2ebench/. Build output goes to stderr; the last line of
stdout is the JSON result. Per-run reports and, for traced runs, the span
file land in .bench_build/e2ebench/results/. README.md beside this script
describes the workloads and metrics.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "e2ebench")
BUILD = os.path.join(OUT, "build")


def build():
    jobs = str(min(2, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("e2ebench: build failed: " + " ".join(cmd))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["ingest", "mixed", "churn"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()
    build()
    work = os.path.join(OUT, "work-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    cmd = [os.path.join(BUILD, "stack_bench"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--work-dir", work, "--out-dir", os.path.join(OUT, "results")]
    try:
        code = subprocess.run(cmd).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
