#!/usr/bin/env python3
"""Builds hrf_perfbench from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload offline-batch --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The build tree is $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
relative to the checkout root. Build output goes to stderr, so the last line
of standard output is the benchmark's JSON result.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("offline-batch", "serve-gpusim-open", "cluster-cpu-light")


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def build(root):
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(f"hrf sources not found under {root / 'src'}")
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    source_dir = Path(__file__).resolve().parent
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(source_dir), "-B", str(build_dir)])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return build_dir


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=("0", "1"))
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    build_dir = build(Path(__file__).resolve().parent.parent)
    if args.self_test:
        cmd = [str(build_dir / "perfbench_selftest")]
    else:
        cmd = [str(build_dir / "hrf_perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
