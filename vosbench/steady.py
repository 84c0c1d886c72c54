#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly, one seed per run, and
report how well each end-to-end metric repeats.

    python3 vosbench/steady.py [--runs 10] [--workloads a,b] [--seed0 1]

For every workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles(values, n=4)), the spread
(q3 - q1) / median, whether the metric repeats within a tenth, and the
metric's bound from BENCHMARK.json with whether the spread stays under a
third of it. It also prints the share of failed operations and each run's
wall time. The raw results go to vosbench/out/steady-<time>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run_once(workload, seed, seconds):
    t0 = time.time()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    wall = time.time() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, wall
    return json.loads(lines[-1]), wall


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    a = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {}
    steady = True
    for w in a.workloads.split(","):
        runs = []
        for i in range(a.runs):
            res, wall = run_once(w, a.seed0 + i, a.seconds)
            runs.append({"seed": a.seed0 + i, "wall_s": wall, "result": res})
            print(f"{w} seed {a.seed0 + i}: {wall:.1f} s, "
                  f"{'ok' if res and res['correct'] else 'FAILED'}", file=sys.stderr, flush=True)
        results[w] = runs
        good = [r["result"] for r in runs if r["result"]]
        if len(good) < len(runs) or not all(r["correct"] for r in good):
            steady = False
            print(f"\n{w}: {len(runs) - len(good)} runs failed, "
                  f"{sum(not r['correct'] for r in good)} incorrect")
        if len(good) < 2:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in good})
        walls = [r["wall_s"] for r in runs]
        print(f"\n{w}: {len(good)} runs, failed share {shares}, "
              f"wall median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        print(f"  {'metric':22s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'spread':>8s}  "
              f"{'tenth':5s} {'bound':>6s} {'<bound/3':8s}")
        for name in good[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in good]
            med, q1, q3, spread = summarize(vals)
            bound = bounds.get(name)
            third = spread < bound / 3 if bound else False
            if name != "setup_s" and not third:
                steady = False
            print(f"  {name:22s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}  "
                  f"{'yes' if spread <= 0.1 else 'NO':5s} {bound!s:>6s} {'yes' if third else 'NO':8s}")

    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    path = os.path.join(BENCH, "out", time.strftime("steady-%Y%m%d-%H%M%S.json"))
    with open(path, "w") as fh:
        json.dump({"runs": a.runs, "seconds": a.seconds, "results": results}, fh, indent=1)
    print(f"\nraw results: {os.path.relpath(path, ROOT)}")
    print("steady" if steady else "NOT steady")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
