#!/usr/bin/env python3
"""Builds and runs the gator end-to-end benchmark.

Run from the repository root:

    python3 gatorbench/run.py --workload corpus-cold --seed 1 --seconds 20 --trace 0

The first run configures and builds gatorbench/ (the analysis libraries,
gator_cli, export_corpus and the benchmark binary) under the directory
named by $CARGO_TARGET_DIR, or .bench_build when it is unset; later runs
only rebuild what changed. The binary's last line of standard output is the
JSON result. Build output goes to standard error. Exits nonzero, without a
result, when the build or the run fails.
"""

import argparse
import os
import signal
import subprocess
import sys

BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"gatorbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(source_dir, build_dir):
    cmake_dir = os.path.join(build_dir, "cmake")
    steps = []
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source_dir, "-B", cmake_dir,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", cmake_dir, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed: " + " ".join(step))
    return cmake_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    source_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(source_dir)
    for needed in ("src", "examples"):
        if not os.path.isdir(os.path.join(root, needed)):
            fail(f"no {needed}/ next to gatorbench/; run inside a checkout")

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    cmake_dir = build(source_dir, build_dir)

    command = [
        os.path.join(cmake_dir, "gatorbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--cli", os.path.join(cmake_dir, "examples", "gator_cli"),
        "--exporter", os.path.join(cmake_dir, "examples", "export_corpus"),
        "--work-dir", os.path.join(build_dir, "work"),
    ]
    # Its own process group, so a timeout also stops its children.
    proc = subprocess.Popen(command, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"the run took longer than {RUN_TIMEOUT_S} s")
    if code != 0:
        fail(f"the benchmark binary exited {code}")


if __name__ == "__main__":
    main()
