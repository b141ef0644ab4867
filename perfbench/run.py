#!/usr/bin/env python3
"""Build and run the White Mirror benchmark (perfbench/).

Run from the root of a checkout:

    python3 perfbench/run.py --workload bulk_video --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (the library sources
under src/ plus the benchmark program) in Release mode into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is
unset; later calls only rebuild what changed. Build output goes to
stderr. The benchmark binary's stdout is passed through: its last line
is one JSON object with the keys correct, attempted, failed and metrics
(end-to-end metrics with --trace 0, per-layer metrics with --trace 1).
The traced run also writes every span and timing summary to
<build dir>/work/trace-<workload>-<seed>.json.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
WORKLOADS = ("bulk_video", "viewer_churn", "lossy_video")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = REPO / base
    return base / "perfbench"


def build(out_dir, env):
    """Configure (once) and build; returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (out_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(out_dir),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr,
                          env=env, timeout=BUILD_TIMEOUT_S).returncode != 0:
            return False
    compile_all = ["cmake", "--build", str(out_dir), "-j", jobs]
    return subprocess.run(compile_all, stdout=sys.stderr, stderr=sys.stderr,
                          env=env, timeout=BUILD_TIMEOUT_S).returncode == 0


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["metrics"], dict) and result["metrics"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own checks")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        return fail("--workload is required")

    if not (REPO / "src").is_dir() or not (REPO / "include" / "wm").is_dir():
        return fail(f"library sources (src/, include/wm/) not found under {REPO}")
    if shutil.which("cmake") is None:
        return fail("cmake not found")

    out_dir = build_dir()
    # Keep compiler and runtime scratch files inside the build tree.
    scratch = out_dir / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(scratch))
    try:
        if not build(out_dir, env):
            return fail("build failed")
    except subprocess.TimeoutExpired:
        return fail("build timed out")

    if args.self_test:
        return subprocess.run([str(out_dir / "perfbench_selftest")], env=env,
                              timeout=RUN_TIMEOUT_S).returncode

    command = [str(out_dir / "wm_perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", str(args.trace),
               "--work-dir", str(out_dir / "work")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("benchmark timed out")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        return run.returncode
    lines = run.stdout.strip().splitlines()
    if not lines or not valid_result(lines[-1]):
        return fail("benchmark printed no result line")
    return 0


if __name__ == "__main__":
    sys.exit(main())
