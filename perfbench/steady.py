#!/usr/bin/env python3
"""Steadiness check: run every workload N times and compare each
end-to-end metric's spread with its bound.

    python3 perfbench/steady.py [--runs 10] [--sets 1] [--seed 1]
                                [--workloads a,b] [--out results.json]

Runs go in alternating order (w1 w2 w3 w1 w2 w3 ...), run i of a set
with seed --seed + i, so slow phases of the host fall on every workload
alike. For each workload and metric it prints the median, the quartiles
and the spread (quartile distance over median) against the metric's
bound from BENCHMARK.json, and flags a spread above the bound (FAIL) or
above a third of it (warn), setup_s included. With --sets 2 the same
seeds run a second time, and each metric's second median must not be
worse than the first by more than its bound. The exit code is 1 when
anything is flagged FAIL.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

ROOT = os.path.dirname(HERE)


def run_once(workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--trace", "0"]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if p.returncode != 0 or not result or not result["correct"]:
        print(f"  {workload} seed {seed}: exit {p.returncode}", flush=True)
        return None
    return {k: v["value"] for k, v in result["metrics"].items()}


def worse(better, first, second):
    """How much worse `second` is than `first`, as a share of `first`."""
    change = (second - first) / first
    return -change if better == "higher" else change


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads")
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])

    # results[set][workload] = list of metric dicts
    results = [{w: [] for w in workloads} for _ in range(args.sets)]
    for s in range(args.sets):
        for i in range(args.runs):
            for w in workloads:
                m = run_once(w, args.seed + i)
                if m is not None:
                    results[s][w].append(m)
                    print(f"  set {s + 1} run {i + 1} {w}: " + ", ".join(
                        f"{k}={v:.4g}" for k, v in m.items()), flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f)

    failed = False
    for w in workloads:
        print(f"\n{w}")
        print(f"  {'metric':<18} {'median':>11} {'q1':>11} {'q3':>11} "
              f"{'spread':>7} {'bound':>6}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            first = [r[name] for r in results[0][w]]
            if len(first) < 2:
                print(f"  {name:<18} too few runs")
                failed = True
                continue
            q1, med, q3 = stats.quartiles(first)
            sp = stats.spread(first)
            flag = "FAIL" if sp > bound else "warn" if sp > bound / 3 else ""
            line = (f"  {name:<18} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                    f"{sp:>7.3f} {bound:>6.2f} {flag}")
            if args.sets == 2:
                second = [r[name] for r in results[1][w]]
                drift = worse(m["better"], med, stats.median(second))
                line += f"  2nd median {drift:+.3f}"
                if drift > bound:
                    line += " FAIL"
                    flag = "FAIL"
            failed |= flag == "FAIL"
            print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
