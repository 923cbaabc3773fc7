#!/usr/bin/env python3
"""ccmm end-to-end benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (and with it the ccmm library from src/) into
.bench_build/perfbench, runs one workload of ccmm_perfbench, and prints
as its last line one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end_to_end list
of BENCHMARK.json, with --trace 1 the per_layer list (a layer a
workload never calls reports 0). Exit code 0 iff every verdict matched
its known answer and every end-to-end metric was measured.

Extra flags: --smoke (toy sizes, for the smoke test) and
--wrong-expected (inverts the known answers; the run must fail).
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "perfbench-work")
BINARY = os.path.join(BUILD_DIR, "ccmm_perfbench")
WORKLOADS = ("lint", "serve", "bounded")
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build incrementally; the log stays on disk."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no ccmm sources next to perfbench/ (src/CMakeLists.txt is "
            "missing); run from a checkout of the repository")
    os.makedirs(os.path.join(ROOT, BUILD_DIR), exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_build", "perfbench-build.log")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(ROOT, BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "ccmm_perfbench"])
    with open(log_path, "a") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, cwd=ROOT, stdout=log,
                                stderr=subprocess.STDOUT).returncode
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                die("build failed: " + " ".join(cmd))


def load_catalog():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--wrong-expected", action="store_true")
    args = ap.parse_args()

    catalog = load_catalog()
    build()
    cmd = [os.path.join(ROOT, BINARY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--work-dir", WORK_DIR]
    if args.smoke:
        cmd.append("--smoke")
    if args.wrong_expected:
        cmd.append("--wrong-expected")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("workload %s timed out after %d s" % (args.workload,
                                                  RUN_TIMEOUT_S))
    lines = proc.stdout.splitlines()
    try:
        measured = json.loads(lines[-1])
    except (IndexError, ValueError):
        die("ccmm_perfbench exited %d without a result" % proc.returncode)
    for line in lines[:-1]:
        print(line)

    correct = bool(measured.get("correct")) and proc.returncode == 0
    attempted = int(measured.get("attempted", 0))
    failed = int(measured.get("failed", 0))
    values = measured.get("metrics", {})
    if attempted > 0:
        values["failed_ratio"] = {"value": failed / attempted,
                                  "unit": "ratio"}
    wanted = catalog["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        got = values.get(m["name"])
        if got is None or got.get("value") is None:
            if not args.trace:
                print("perfbench: end-to-end metric %s was not measured"
                      % m["name"], file=sys.stderr)
                correct = False
                continue
            value = 0  # this workload never calls that layer
        else:
            value = got["value"]
            if not args.trace and not (math.isfinite(value) and value > 0):
                print("perfbench: end-to-end metric %s = %r"
                      % (m["name"], value), file=sys.stderr)
                correct = False
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
