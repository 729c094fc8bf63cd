#!/usr/bin/env python3
"""Steadiness report: run each workload repeatedly, one seed per run, and
print for every end-to-end metric its median, quartiles, interquartile
spread and max/min spread next to the metric's bound from BENCHMARK.json.

    python3 foambench/steadiness.py                     # 1 set of 10 runs
    python3 foambench/steadiness.py --sets 2            # drift between sets
    python3 foambench/steadiness.py --runs 5 --workload serial_paper

Seeds run from 1 to --runs; the run length is BENCHMARK.json's run_seconds.
A set runs every workload --runs times, one run after another, never
concurrently. With --sets 2 or more the sets run one after another, the
workload order reversed in every other set, and each later set's medians are
compared with the first set's.

A metric is steady when its interquartile spread (q3 - q1, as a share of the
median) is below a third of its bound. Exits non-zero if any run is
incorrect, any interquartile spread exceeds its bound, or any median of a
later set differs from the first set's by more than the bound (as a share of
the first set's median).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_set(spec, workloads, runs):
    """{workload: {metric: [values]}} for one set; also returns whether
    every run was correct."""
    values, all_correct = {}, True
    for workload in workloads:
        v = values[workload] = {m["name"]: [] for m in spec["end_to_end"]}
        failed = attempted = incorrect = 0
        for seed in range(1, runs + 1):
            r = run_once(workload, seed, spec["run_seconds"])
            attempted += r["attempted"]
            failed += r["failed"]
            incorrect += 0 if r["correct"] else 1
            for name in v:
                v[name].append(r["metrics"][name]["value"])
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{k}={r['metrics'][k]['value']:.6g}" for k in v), flush=True)
        print(f"{workload}: {runs} runs, {incorrect} incorrect, "
              f"failed_frac {failed / max(1, attempted):.3g} "
              f"({failed} of {attempted} exchanges)", flush=True)
        all_correct = all_correct and incorrect == 0
    return values, all_correct


def report_spread(spec, workload, v):
    """Prints the spread table of one workload in one set; returns False if
    any interquartile spread exceeds its bound."""
    ok = True
    print(f"\n{workload}")
    print(f"  {'metric':20s} {'unit':6s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'iqr/med':>8s} {'rng/med':>8s} {'bound':>6s}  "
          "verdict")
    for m in spec["end_to_end"]:
        x = v[m["name"]]
        med = statistics.median(x)
        q1, _, q3 = statistics.quantiles(x, n=4)
        iqr = (q3 - q1) / med
        rng = (max(x) - min(x)) / med
        if iqr <= m["bound"] / 3:
            verdict = "steady (< bound/3)"
        elif iqr <= m["bound"]:
            verdict = "within bound"
        else:
            verdict = "TOO NOISY"
            ok = False
        print(f"  {m['name']:20s} {m['unit']:6s} {med:12.6g} {q1:12.6g} "
              f"{q3:12.6g} {iqr:8.2%} {rng:8.2%} {m['bound']:6.2f}  "
              f"{verdict}")
    return ok


def report_drift(spec, first, later, label):
    """Prints how far each median of a later set moved from the first set's;
    returns False if any moved by more than its bound."""
    ok = True
    print(f"\nmedian drift, {label} vs set 1 (share of the set-1 median; "
          "'worse' is in the metric's bad direction)")
    for workload in first:
        for m in spec["end_to_end"]:
            m1 = statistics.median(first[workload][m["name"]])
            m2 = statistics.median(later[workload][m["name"]])
            drift = (m2 - m1) / m1
            worse = drift if m["better"] == "lower" else -drift
            verdict = "ok" if abs(drift) <= m["bound"] else "DRIFTS PAST BOUND"
            ok = ok and abs(drift) <= m["bound"]
            print(f"  {workload:22s} {m['name']:20s} {m1:12.6g} -> "
                  f"{m2:12.6g}  drift {drift:+8.2%}  worse {worse:+8.2%}  "
                  f"bound {m['bound']:.2f}  {verdict}")
    return ok


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    ok = True
    sets = []
    for k in range(args.sets):
        print(f"=== set {k + 1} of {args.sets}", flush=True)
        order = workloads if k % 2 == 0 else workloads[::-1]
        values, correct = run_set(spec, order, args.runs)
        ok = ok and correct
        for workload in workloads:
            ok = report_spread(spec, workload, values[workload]) and ok
        sets.append(values)
    for k in range(1, len(sets)):
        ok = report_drift(spec, sets[0], sets[k], f"set {k + 1}") and ok
    print("\nverdict:", "STEADY" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
