#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the root of a source checkout:

    python3 perfbench/selftest.py

1. A short run of every workload, untraced and traced, reports every metric
   BENCHMARK.json declares, with its unit, and zero failed operations.
2. tool_s and hypervolume are identical across two runs with the same seed.
3. A wrapper backend that adds one to a metric in every utilization report
   is caught by the output checks (failed operations, correct=false).
4. A busy thread in the process during calibration trips the guard: the run
   is rejected with exit code 3 and prints no result.
"""
import json
import os
import subprocess
import sys

RUN = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")]
WORKLOADS = ["explore_fresh", "explore_nwm", "serve_durable"]
failures = []


def run(workload, seed=7, trace="0", extra=()):
    cmd = RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", trace] + list(extra)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc.returncode, result, proc.stderr


def expect(condition, what):
    print(("ok   " if condition else "FAIL ") + what, flush=True)
    if not condition:
        failures.append(what)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    exact = {}
    for workload in WORKLOADS:
        for trace, declared in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
            code, result, err = run(workload, trace=trace)
            ok = code == 0 and result is not None
            expect(ok, "%s trace=%s exits 0 with a result" % (workload, trace))
            if not ok:
                sys.stderr.write(err[-2000:])
                continue
            metrics = result["metrics"]
            expect(all(m["name"] in metrics and metrics[m["name"]]["unit"] == m["unit"]
                       for m in declared),
                   "%s trace=%s reports every declared metric with its unit" % (workload, trace))
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   "%s trace=%s has no failed operations" % (workload, trace))
            if trace == "0":
                exact[workload] = (metrics["tool_s"]["value"], metrics["hypervolume"]["value"])
        code, result, _ = run(workload)
        expect(code == 0 and result is not None and exact.get(workload) ==
               (result["metrics"]["tool_s"]["value"], result["metrics"]["hypervolume"]["value"]),
               "%s tool_s and hypervolume repeat exactly for a seed" % workload)

    for workload in ("explore_fresh", "serve_durable"):
        code, result, _ = run(workload, extra=["--perturb-metric", "lut"])
        expect(code == 0 and result is not None and not result["correct"] and result["failed"] > 0,
               "%s: a backend that perturbs 'lut' is caught by the output check" % workload)

    code, result, err = run("explore_fresh", extra=["--busy-thread"])
    expect(code == 3 and result is None and "calibration window" in err,
           "a busy thread during calibration trips the guard")

    if failures:
        print("%d self-test(s) failed" % len(failures))
        sys.exit(1)
    print("all self-tests passed")


if __name__ == "__main__":
    main()
