#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the library from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs one
workload.  Build output goes to stderr; the last line of stdout is the
result object printed by the benchmark binary.  Traced runs keep their
spans in .bench_build/spans/.
"""
import argparse
import json
import os
import subprocess
import sys
import time

WORKLOADS = ("consensus-scale", "consensus-faulty", "emulation-stack",
             "live-service")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                        build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "algo", "runner.hpp")):
        fail("no library sources under %s/src: run from a checkout of the "
             "repository" % root)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(root, target)
    build_dir = os.path.join(target, "perfbench")
    try:
        build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(target, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, "%s-%d.jsonl" % (args.workload, args.seed))]
    env = dict(os.environ)
    env["PERFBENCH_SPAWN_NS"] = str(time.monotonic_ns())
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail("benchmark exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(proc.stdout)
        fail("malformed result line")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
