#!/usr/bin/env python3
"""Same-machine throughput regression gate for bench/throughput_pipeline.

    python3 bench/throughput_gate.py --base BASE_BIN --head HEAD_BIN \\
        [--anchor ANCHOR_BIN] [--baseline BENCH_throughput.json] \\
        [--out REPORT.json]

Runs builds of throughput_pipeline --quick, one of the base commit, one of
the commit under test (head) and, with --anchor, one of the commit that
last regenerated BENCH_throughput.json, RUNS times each. The sides take
turns, in order in even rounds and in reverse order in odd ones. Fails
(exit 1) when a head run's egress digest differs from quick_output_digest
in the committed baseline JSON, when its count of egress packets built
differs from quick_packets_built (a count repeats exactly on any machine,
so a change that stops building each distinct packet once fails here),
or when the median head throughput is below FLOOR times the median of
the base or of the anchor. The base bounds
the loss of one change; the anchor bounds the loss that adds up over
several changes since the baseline was recorded. All builds run on the
same machine, so the ratios do not depend on the machine's speed. --out
writes every run, both ratios and the verdict as JSON.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

RUNS = 3
FLOOR = 0.8


def run(binary):
    """One --quick run; returns its JSON report."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.json")
        subprocess.run([binary, "--quick", "--json", "--out", path],
                       check=True, stdout=subprocess.DEVNULL)
        with open(path) as f:
            return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True, help="base throughput_pipeline")
    ap.add_argument("--head", required=True, help="head throughput_pipeline")
    ap.add_argument("--anchor", help="throughput_pipeline of the commit that "
                    "last regenerated the baseline JSON")
    ap.add_argument("--baseline", default="BENCH_throughput.json")
    ap.add_argument("--out")
    a = ap.parse_args()

    with open(a.baseline) as f:
        baseline = json.load(f)
    want_digest = baseline["quick_output_digest"]
    want_built = baseline["quick_packets_built"]
    sides = ["base", "head"] + (["anchor"] if a.anchor else [])
    runs = {side: [] for side in sides}
    for k in range(RUNS):
        order = sides if k % 2 == 0 else sides[::-1]
        for side in order:
            rep = run(getattr(a, side))
            rate = rep["batched"]["msgs_per_sec"]
            # Builds older than the packets_built counter lack the key.
            built = rep.get("packets_built")
            runs[side].append({"msgs_per_sec": rate,
                               "output_digest": rep["output_digest"],
                               "packets_built": built})
            print(f"round {k + 1} {side}: {rate:.0f} msgs/s "
                  f"digest {rep['output_digest']} built {built}", flush=True)

    failures = []
    for r in runs["head"]:
        if r["output_digest"] != want_digest:
            failures.append(f"egress digest {r['output_digest']} != "
                            f"committed {want_digest}")
            break
    for r in runs["head"]:
        if r["packets_built"] != want_built:
            failures.append(f"egress packets built {r['packets_built']} != "
                            f"committed {want_built}")
            break
    med = {s: statistics.median(r["msgs_per_sec"] for r in runs[s])
           for s in runs}
    ratios = {s: med["head"] / med[s] for s in sides if s != "head"}
    for side, ratio in ratios.items():
        print(f"median: head {med['head']:.0f} msgs/s, {side} "
              f"{med[side]:.0f} msgs/s ({ratio:.2f}x, floor {FLOOR:.2f}x)")
        if ratio < FLOOR:
            failures.append(f"batched throughput {ratio:.2f}x of the {side} "
                            f"commit, below the {FLOOR:.2f}x floor")

    if a.out:
        with open(a.out, "w") as f:
            json.dump({"runs": runs, "median_msgs_per_sec": med,
                       "ratio": ratios["base"],
                       "anchor_ratio": ratios.get("anchor"), "floor": FLOOR,
                       "quick_output_digest": want_digest,
                       "quick_packets_built": want_built,
                       "failures": failures}, f, indent=2)
    for msg in failures:
        print("FAIL: " + msg, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
