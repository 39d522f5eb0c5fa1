#!/usr/bin/env python3
"""Builds the RGB benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The benchmark is configured and built
(CMake, Release) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when the variable is unset; a traced run also writes its per-layer numbers
to .bench_out/. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result. Exits non-zero, without a
result, when the program's sources are missing or do not build.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    make = ["cmake", "--build", build_dir, "--target", "rgb_perf", "-j", "4"]
    return subprocess.run(make, stdout=sys.stderr).returncode == 0


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT,
                                                               ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    trace_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(trace_dir, exist_ok=True)
    command = [os.path.join(build_dir, "rgb_perf")] + sys.argv[1:] + [
        "--trace-dir", trace_dir]
    proc = subprocess.Popen(command)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
