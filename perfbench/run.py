#!/usr/bin/env python3
"""Builds and runs the pullmon end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload proxy_clean --seed 1 --seconds 10 --trace 0

The first call configures and builds perfbench/ (which compiles ../src in
Release mode) into .bench_build/perfbench; later calls rebuild only what
changed. The benchmark's output is passed through, and its last line is
the JSON result. Exits non-zero without a result when the build or the
run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170

# Per-layer timings taken on the traced entry-point run itself, so the
# ones a large trace overhead distorts.
TRACED_RUN_TIMINGS = ["sim.proxy_s", "sim.push_s", "sim.chronon_p50_ms",
                      "sim.chronon_p99_ms", "recovery.storage_s"]


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("pullmon sources not found at %s" % os.path.join(ROOT, "src"))
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = [["cmake", "--build", BUILD_DIR, "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"])
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed: " + " ".join(step))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    spec = load_spec()
    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail("run failed with exit code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(proc.stdout)
        fail("last output line is not a JSON result")

    expected = [m["name"] for m in
                spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(expected):
        fail("metrics %s do not match BENCHMARK.json %s"
             % (sorted(result["metrics"]), sorted(expected)))

    print("\n".join(lines[:-1]))
    if args.trace:
        bound = min(m["bound"] for m in spec["end_to_end"]
                    if m["name"].endswith("_per_s"))
        overhead = result["metrics"]["sim.trace_overhead"]["value"]
        if overhead > 1.0 + bound:
            print("NOT TRUSTWORTHY: trace overhead %.3fx exceeds the %.2f "
                  "end-to-end bound; per-layer timings of the traced run "
                  "(%s) are distorted on %s"
                  % (overhead, bound, ", ".join(TRACED_RUN_TIMINGS),
                     args.workload))
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
