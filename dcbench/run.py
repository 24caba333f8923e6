#!/usr/bin/env python3
"""dcprof end-to-end benchmark: build from source, run one workload, print
its result.

    python3 dcbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dcprof checkout. The first run configures and
builds the dcprof libraries plus the benchmark (Release) into
.bench_build/; later runs only rebuild what changed. The last line of
standard output is the result object {"correct", "attempted", "failed",
"metrics"}; the line before it carries the host and build context. A
traced run (--trace 1) also writes its spans as Chrome trace JSON to
.bench_build/traces/<workload>-seed<N>.json (open it in Perfetto).
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("measure", "measure-sockets")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "dcbench")
RUN_TIMEOUT_S = 175


def fail(msg):
    print("dcbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds; serialized across concurrent runs."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no dcprof sources next to the benchmark (expected %s)"
             % os.path.join(ROOT, "src"))
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j",
                      str(len(os.sched_getaffinity(0)))])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    # On SIGTERM, unwind so subprocess.run kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    build()
    work = os.path.join(BUILD_ROOT, "work", "%s-%d" % (args.workload,
                                                       os.getpid()))
    cmd = [os.path.join(BUILD_DIR, "dcbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work", work]
    if args.trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload,
                                                RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s exited with %d" % (args.workload, proc.returncode))
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
