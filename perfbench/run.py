#!/usr/bin/env python3
"""Build and run the hetopt benchmark (perfbench/hetopt_perfbench.cpp).

    python3 perfbench/run.py --workload scan_resident --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The benchmark is configured and built
with CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
on first use, incrementally afterwards; build output goes to stderr. Every
other argument is passed to the benchmark binary, whose standard output
(provenance and sample-count lines, then the JSON result as the last line)
is relayed unchanged, as is its exit code. Temporary files and trace files
are written under the build directory.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "hetopt_perfbench",
                  "-j", jobs])
    for cmd in steps:
        result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=BUILD_TIMEOUT_S)
        if result.returncode != 0:
            return False
    return True


def main(argv):
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        if not build(build_dir):
            print("run.py: build failed", file=sys.stderr)
            return 2
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 2
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "hetopt_perfbench"), "--tmp-dir", tmp_dir] + argv
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: benchmark timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
