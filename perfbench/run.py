#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the durable SBF stack.

    python3 perfbench/run.py --workload <ingest|query|reopen> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (the library straight from src/, Release) into .bench_build/;
later runs only check that the build is current. Store directories live
under a temporary root in .bench_build/stores/ that is removed when the run
ends, however it ends. Traced runs also write their spans to
.bench_build/spans/<workload>.tsv.

The last line of standard output is the benchmark's JSON result; the exit
code is non-zero if the build, set-up or any correctness check failed.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile

WORKLOADS = ("ingest", "query", "reopen")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                     build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    compile_ = ["cmake", "--build", build_dir, "--target", "sbf_e2e", "-j",
                jobs]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "sbf_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("src/CMakeLists.txt", "bench/common/bench_json.h"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"{needed} is missing; run from a full checkout")
    build_dir = os.path.join(root, ".bench_build")
    binary = build(root, build_dir)

    stores = os.path.join(build_dir, "stores")
    try:
        os.makedirs(stores, exist_ok=True)
        store_root = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=stores)
    except OSError as e:
        fail(f"cannot create the store root under {stores}: {e}")

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--store-root", store_root]
    if args.trace:
        spans = os.path.join(build_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        command += ["--spans", os.path.join(spans, f"{args.workload}.tsv")]

    child = None

    def stop(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        sys.stdout.flush()
        child = subprocess.Popen(command)
        try:
            code = child.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            code = 124
    finally:
        if child is not None and child.poll() is None:
            child.kill()
            child.wait()
        shutil.rmtree(store_root, ignore_errors=True)
    if code != 0:
        print(f"perfbench: sbf_e2e exited with {code}", file=sys.stderr)
    sys.exit(code if code > 0 else 1 if code != 0 else 0)


if __name__ == "__main__":
    main()
