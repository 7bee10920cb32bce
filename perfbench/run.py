#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources, then runs it.

    python3 perfbench/run.py --workload <plug_rollout|gateway_read|model_mix> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The build (CMake, Release) goes to
.bench_build/perfbench; a traced run also writes its spans as Chrome
trace_event JSON to .bench_build/traces/.  The last line of standard output
is the result object (see perfbench/README.md).  A failed build or a failed
correctness check exits non-zero.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def run_logged(cmd, log):
    with open(log, "a") as out:
        return subprocess.call(cmd, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT)


def build():
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if run_logged(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"], log):
            return False
    return run_logged(["cmake", "--build", BUILD, "-j", jobs], log) == 0


def option(args, name):
    if name in args and args.index(name) + 1 < len(args):
        return args[args.index(name) + 1]
    return None


def main():
    args = sys.argv[1:]
    if not build():
        sys.stderr.write("perfbench: build failed, see .bench_build/perfbench/build.log\n")
        return 1
    cmd = [BINARY] + args
    if option(args, "--trace") == "1":
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        name = "%s-%s.json" % (option(args, "--workload"), option(args, "--seed"))
        cmd += ["--trace-out", os.path.join(traces, name)]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
