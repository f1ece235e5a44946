#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload suite_sweep|chip_probe|svc_store \\
        --seed N --seconds S --trace 0|1

The first run configures and builds an optimised (Release) tree under
.bench_build/perfbench; later runs rebuild incrementally. The driver's
last line of stdout is the result: one JSON object with "correct",
"attempted", "failed" and "metrics". See perfbench/README.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_run")
TARGETS = ["perfbench_driver", "pfitsd", "pfits_report"]
WORKLOADS = ["suite_sweep", "chip_probe", "svc_store"]
DRIVER_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def checkout_env():
    """The environment with temporary files kept inside the checkout."""
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "a") as log:
        try:
            return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout,
                                  env=checkout_env()).returncode
        except subprocess.TimeoutExpired:
            return -1


def build():
    for need in ("src/CMakeLists.txt", "tests/golden"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("not a source checkout: %s is missing" % need)
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail("%s not found" % tool)
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        rc = run_logged(["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"], log, 300)
        if rc != 0:
            fail("cmake configure failed, see " + log)
    rc = run_logged(["cmake", "--build", BUILD, "-j3", "--target"] + TARGETS,
                    log, BUILD_TIMEOUT_S)
    if rc != 0:
        fail("build failed, see " + log)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in 1..600")

    build()
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(BUILD, "perfbench_driver"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", args.trace,
           "--golden", os.path.join(ROOT, "tests", "golden"),
           "--work", os.path.relpath(work, os.getcwd()),
           "--pfitsd", os.path.join(BUILD, "pfits", "svc", "pfitsd"),
           "--report", os.path.join(BUILD, "pfits", "obs", "pfits_report")]
    # Its own process group, so a timeout also ends the pfitsd child.
    proc = subprocess.Popen(cmd, start_new_session=True, env=checkout_env())
    try:
        rc = proc.wait(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: driver timed out", file=sys.stderr)
        sys.exit(1)
    sys.exit(rc)


if __name__ == "__main__":
    main()
