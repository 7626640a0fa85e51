#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt: the mvstore library from the
repository's sources, Release, failpoints compiled out) into .bench_build/;
later runs only rebuild what changed. Every run then executes the tests of
the benchmark's own statistics code and, if they pass, the benchmark
binary, whose last stdout line is the JSON result. The exit code is 0 only
if the build, the tests and every correctness check passed.

Workloads and metrics are listed in BENCHMARK.json at the repository root.
With --trace 1 the per-layer ledger is printed instead of the end-to-end
metrics, and the raw spans are written to .bench_build/spans/.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("hot_update", "long_reader_mix", "tatp_tcp")


def build():
    """Configure once, then build; build output goes to a log file and is
    shown only on failure, so stdout stays the benchmark's."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "perfbench", "perfbench_stats_test"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT, timeout=840).returncode != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-8000:])
                sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in (0, 600]")

    if not build():
        return 1
    test = subprocess.run([os.path.join(BUILD, "perfbench_stats_test")],
                          stdout=subprocess.DEVNULL, timeout=60)
    if test.returncode != 0:
        sys.stderr.write("run.py: perfbench_stats_test failed\n")
        return 1

    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans", os.path.join(ROOT, ".bench_build", "spans")]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT, timeout=170).returncode


if __name__ == "__main__":
    sys.exit(main())
