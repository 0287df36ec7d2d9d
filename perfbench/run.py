#!/usr/bin/env python3
"""Build and run the hpmm repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Workloads: fine_grain, full_capture, coarse_grain, serve_mix (README.md).
The first run builds the library from the repository root (tests, benches
and examples off), installs it under .bench_build/prefix and builds the
benchmark binary against that install; later runs rebuild incrementally.
Build output goes to stderr. The binary's last stdout line is the JSON
result. A traced run (--trace 1) also writes its spans to
.bench_build/spans/<workload>-seed<n>.json.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("fine_grain", "full_capture", "coarse_grain", "serve_mix")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    """Configure, build and install hpmm, then build the benchmark binary."""
    lib = os.path.join(BUILD, "hpmm")
    prefix = os.path.join(BUILD, "prefix")
    bench = os.path.join(BUILD, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(lib, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", lib,
                      "-DHPMM_BUILD_TESTS=OFF", "-DHPMM_BUILD_BENCH=OFF",
                      "-DHPMM_BUILD_EXAMPLES=OFF",
                      "-DCMAKE_INSTALL_PREFIX=" + prefix])
    steps += [["cmake", "--build", lib, "-j", jobs],
              ["cmake", "--install", lib]]
    if not os.path.exists(os.path.join(bench, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bench,
                      "-DCMAKE_PREFIX_PATH=" + prefix])
    steps.append(["cmake", "--build", bench, "-j", jobs])
    for step in steps:
        subprocess.run(step, stdout=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(bench, "perfbench")


def main():
    # Turn SIGTERM into SystemExit so subprocess.run kills and reaps the
    # build step or benchmark binary it is waiting on before we exit.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as err:
        print("build failed: %s" % err, file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("benchmark run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
