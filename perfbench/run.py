#!/usr/bin/env python3
"""End-to-end benchmark of dovado: build, prepare, run one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload explore_fresh --seed 1 --seconds 20 --trace 0

The first call builds the dovado libraries and the dovado_e2e binary
(perfbench/CMakeLists.txt) into the build directory ($CARGO_TARGET_DIR, or
.bench_build), and the first serve_durable call also pre-builds that
workload's evaluation store there. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}; with --trace 0
the metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1
the per-layer ones. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "ab") as log:
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, timeout=timeout)
        except subprocess.TimeoutExpired:
            fail("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        with open(log_path, "rb") as log:
            tail = log.read()[-4000:].decode(errors="replace")
        fail("command failed: %s\n%s" % (" ".join(cmd), tail))


def build(root, build_dir):
    """Configure (once) and build dovado_e2e; returns its path."""
    binary_dir = os.path.join(build_dir, "perfbench")
    os.makedirs(binary_dir, exist_ok=True)
    log = os.path.join(build_dir, "build.log")
    if not os.path.isfile(os.path.join(binary_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", os.path.join(root, "perfbench"), "-B", binary_dir,
                    "-DCMAKE_BUILD_TYPE=Release"], log, BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", binary_dir, "--target", "dovado_e2e", "-j", jobs],
               log, BUILD_TIMEOUT_S)
    return os.path.join(binary_dir, "dovado_e2e")


def prebuilt_store(binary, root, build_dir):
    """The serve workload's store, built once per dovado_e2e binary."""
    with open(binary, "rb") as f:
        stamp = hashlib.sha256(f.read()).hexdigest()[:16]
    store_dir = os.path.join(build_dir, "serve-store")
    path = os.path.join(store_dir, "prebuilt-%s.dvstore" % stamp)
    if os.path.isfile(path):
        return path
    shutil.rmtree(store_dir, ignore_errors=True)
    os.makedirs(store_dir)
    partial = path + ".partial"
    run_logged([binary, "prebuild-store", "--rtl", os.path.join(root, "rtl"), "--out", partial],
               os.path.join(build_dir, "build.log"), RUN_TIMEOUT_S)
    os.remove(partial + ".lock")
    os.rename(partial, path)
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    # Self-test hooks (perfbench/selftest.py); never used by a measured run.
    parser.add_argument("--perturb-metric")
    parser.add_argument("--busy-thread", action="store_true")
    args = parser.parse_args()

    root = os.getcwd()
    with open(os.path.join(HERE, "calibration.json")) as f:
        calibration = json.load(f)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = calibration["workloads"]
    if args.workload not in workloads:
        fail("unknown workload '%s' (known: %s)" % (args.workload, ", ".join(sorted(workloads))), 2)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(root, "rtl")):
        fail("run from the root of a dovado source checkout (src/ and rtl/ not found)", 2)
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds positive", 2)

    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(root, build_dir)
    store = prebuilt_store(binary, root, build_dir) if args.workload == "serve_durable" else ""

    work = os.path.join(build_dir, "runs", "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--rtl", os.path.join(root, "rtl"), "--work", work, "--store", store or "-",
           "--nominal-map", repr(calibration["nominal_map_s"]),
           "--nominal-fp", repr(calibration["nominal_fp_s"]),
           "--fp-weight", repr(workloads[args.workload]["fp_weight"]),
           "--nominal-io", repr(calibration["nominal_io_s"]),
           "--hv-ref", ",".join(repr(v) for v in workloads[args.workload]["hv_reference"]),
           "--trace-out", os.path.join(trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.perturb_metric:
        cmd += ["--perturb-metric", args.perturb_metric]
    if args.busy_thread:
        cmd.append("--busy-thread")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        fail("dovado_e2e exited with code %d" % proc.returncode, proc.returncode)
    lines = proc.stdout.decode().strip().splitlines()
    if not lines:
        fail("dovado_e2e printed no result")
    result = json.loads(lines[-1])

    # Report exactly the metrics BENCHMARK.json declares for this mode.
    declared = bench["per_layer"] if args.trace == "1" else bench["end_to_end"]
    metrics = {}
    for m in declared:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail("dovado_e2e did not report %s in %s" % (m["name"], m["unit"]))
        metrics[m["name"]] = got
    extra = {k: v["value"] for k, v in result["metrics"].items() if k not in metrics}
    if extra:
        print("perfbench: also measured " + json.dumps(extra), file=sys.stderr)
    print(json.dumps({"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
