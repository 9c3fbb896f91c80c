#!/usr/bin/env python3
"""Builds and runs one end-to-end benchmark run (see README.md).

Run from the repository root:

    python3 e2ebench/run.py --workload solo_edit --seed 1 --seconds 10 --trace 0

The first call configures and builds e2ebench/ (which compiles ../src) into
$CARGO_TARGET_DIR, default .bench_build; later calls rebuild incrementally.
Build output goes to stderr. The harness's report goes to stdout, and its
last line is the JSON result. The exit code is non-zero when the build fails
(no result is printed then) or when any correctness check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TARGET = "tcvs_e2e_bench"
# A run must end within 180 s; the harness itself needs far less.
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d.resolve()


def configured_for_this_source(out: Path) -> bool:
    cache = out / "CMakeCache.txt"
    if not cache.exists():
        return False
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
            return Path(line.split("=", 1)[1]).resolve() == HERE
    return False


def build(out: Path) -> bool:
    if not configured_for_this_source(out):
        shutil.rmtree(out, ignore_errors=True)
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", str(out), "-j", jobs, "--target", TARGET]
    return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        print("e2ebench: build failed", file=sys.stderr)
        return 2

    data_dir = out / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    cmd = [str(out / TARGET), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--data-dir", str(data_dir)]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"e2ebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        json.loads(lines[-1])
    except (IndexError, ValueError):
        print("e2ebench: the harness printed no result", file=sys.stderr)
        return proc.returncode or 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
