#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--toy]

The benchmark compiles the checkout's src/ together with perfbench/ into
.bench_build/ (the first run builds; later runs only rebuild what changed),
then runs the ct_e2e binary. Its last stdout line is the JSON
result; build output goes to .bench_build/build.log.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "ct_e2e")
WORKLOADS = ("ingest_durable", "serve_uniform", "live_tail")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources at src/ next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "ct_e2e", "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                fail("build timed out; see " + log_path)
            if rc != 0:
                fail("build failed (" + " ".join(cmd) + "); see " + log_path)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--toy", action="store_true",
                    help="toy-size inputs (the self-test)")
    args = ap.parse_args()

    build()
    # A private storage directory per run, so runs never share a WAL.
    work = os.path.join(BUILD_ROOT, "work",
                        "%s-%d" % (args.workload, os.getpid()))
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", work,
           "--out-dir", os.path.join(BUILD_ROOT, "traces")]
    if args.toy:
        cmd.append("--toy")
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()
