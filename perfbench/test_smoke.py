#!/usr/bin/env python3
"""Smoke test of the benchmark at toy sizes.

    python3 perfbench/test_smoke.py

Runs every workload untraced and traced through run.py with --smoke
and checks the contract of the result line: the exact key set, every
end-to-end metric measured and positive, every per-layer metric present,
the verdict checks passing, and the traced run's top-level spans
covering at least 90% of its timed phase. Then checks that inverted
known answers (--wrong-expected) fail the run.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lint", "serve", "bounded")


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--smoke", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


def check(cond, what, failures):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        catalog = json.load(f)
    e2e = [m["name"] for m in catalog["end_to_end"]]
    layers = [m["name"] for m in catalog["per_layer"]]
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            tag = "%s trace=%d" % (workload, trace)
            proc, result = run(workload, trace)
            check(proc.returncode == 0 and result is not None,
                  tag + ": exits 0 with a result line", failures)
            if result is None:
                sys.stderr.write(proc.stderr[-2000:])
                continue
            check(sorted(result) == ["attempted", "correct", "failed",
                                     "metrics"],
                  tag + ": result keys", failures)
            check(result["correct"] and result["failed"] == 0 and
                  result["attempted"] >= 1,
                  tag + ": every verdict matches its known answer", failures)
            metrics = result["metrics"]
            names = e2e if trace == 0 else layers
            check(sorted(metrics) == sorted(names),
                  tag + ": reports exactly the catalog metrics", failures)
            if trace == 0:
                check(all(metrics[n]["value"] > 0 for n in e2e if n in metrics),
                      tag + ": end-to-end metrics are positive", failures)
            else:
                coverage = metrics.get("tracing.coverage", {}).get("value", 0)
                check(coverage >= 0.9,
                      tag + ": top-level spans cover %.3f of the timed phase"
                      % coverage, failures)
                spans = os.path.join(ROOT, ".bench_build", "perfbench-work",
                                     "spans", "%s-seed7.tsv" % workload)
                check(os.path.isfile(spans), tag + ": spans written", failures)
    for workload in WORKLOADS:
        proc, result = run(workload, 0, "--wrong-expected")
        check(proc.returncode != 0 and result is not None and
              not result["correct"] and result["failed"] > 0,
              workload + ": a wrong expected verdict fails the run", failures)
    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
