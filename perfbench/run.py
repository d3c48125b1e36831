#!/usr/bin/env python3
"""Build and run the Camus benchmark.

    python3 perfbench/run.py --workload selective|churn --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles the libraries under src/) into .bench_build/;
later runs only re-check the build. The benchmark binary prints one JSON
result object as the last line of standard output; the build log goes to
standard error. Exits non-zero, without a result, when the build or the run
fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "trace")
BINARY = os.path.join(BUILD_DIR, "camus_perfbench")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
        ["cmake", "--build", BUILD_DIR, "--target", "camus_perfbench",
         "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return os.path.exists(BINARY)


def run_binary(extra, timeout=RUN_TIMEOUT_S):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    try:
        proc = subprocess.run([BINARY] + extra, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def last_json(lines):
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def self_test():
    """Checks that the output check bites and that every workload reports
    the full metric-name sets of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    ok = True
    for w in spec["workloads"]:
        for trace in (0, 1):
            code, lines = run_binary(["--workload", w["name"], "--seed", "7",
                                      "--seconds", "0.2", "--trace",
                                      str(trace), "--tiny"])
            res = last_json(lines)
            good = (code == 0 and res is not None and res["correct"]
                    and res["failed"] == 0
                    and set(res["metrics"]) == names[trace])
            print("self-test %-10s trace=%d  %s" %
                  (w["name"], trace, "ok" if good else "FAILED"))
            if res is not None and set(res["metrics"]) != names[trace]:
                print("  metric names differ: %s" %
                      sorted(set(res["metrics"]) ^ names[trace]))
            ok = ok and good
        code, lines = run_binary(["--workload", w["name"], "--seed", "7",
                                  "--seconds", "0.2", "--trace", "0",
                                  "--tiny", "--perturb"])
        res = last_json(lines)
        bites = (code == 0 and res is not None and not res["correct"]
                 and res["failed"] > 0 and res["failed"] / res["attempted"] > 0)
        print("self-test %-10s perturbed  %s" %
              (w["name"], "ok (error_rate > 0)" if bites else "FAILED"))
        ok = ok and bites
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and not a.workload:
        ap.error("--workload is required")
    if not build():
        print("benchmark build failed", file=sys.stderr)
        return 1
    if a.self_test:
        return 0 if self_test() else 1

    extra = ["--workload", a.workload, "--seed", str(a.seed),
             "--seconds", repr(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        extra += ["--trace-out", os.path.join(
            TRACE_DIR, "%s-seed%d.jsonl" % (a.workload, a.seed))]
    code, lines = run_binary(extra)
    res = last_json(lines)
    if code != 0 or res is None:
        print("benchmark run failed (exit %d)" % code, file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
