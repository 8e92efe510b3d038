#!/usr/bin/env python3
"""Runs the benchmark repeatedly and summarizes each metric's spread.

One checkout: run every workload N times, each at another seed, and print
each end-to-end metric's median, quartiles and spread (interquartile range
over median) beside its bound from BENCHMARK.json:

    python3 bench/ab.py --runs 10 .

Two checkouts (a parent and a change): alternate the two, with which one
goes first swapped on every seed, and print both sides and the change's
median difference as a share of the parent's median:

    python3 bench/ab.py --runs 10 /path/to/parent /path/to/change

Each checkout builds its own benchmark under its .bench_build/.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(root, command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
    if p.returncode != 0 or not last.startswith("{"):
        sys.exit(f"{root}: {' '.join(cmd)} exited {p.returncode}\n{p.stderr[-2000:]}")
    res = json.loads(last)
    if not res["correct"] or res["failed"]:
        sys.exit(f"{root}: {workload} seed {seed}: {res['failed']} of {res['attempted']} operations failed")
    return {k: v["value"] for k, v in res["metrics"].items()}


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10, help="runs per workload and checkout, at seeds 1..runs")
    ap.add_argument("roots", nargs="+", help="one checkout, or a parent and a change")
    args = ap.parse_args()
    if len(args.roots) > 2:
        ap.error("give one or two checkouts")

    with open(os.path.join(args.roots[0], "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {(root, w): [] for root in args.roots for w in workloads}
    for w in workloads:
        for seed in range(1, args.runs + 1):
            order = args.roots if seed % 2 else list(reversed(args.roots))
            for root in order:
                runs[(root, w)].append(run_once(root, spec["command"], w, seed, spec["run_seconds"]))
            print(f"{w} seed {seed} done", file=sys.stderr)

    for w in workloads:
        print(f"== {w} ({args.runs} runs, seeds 1..{args.runs})")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cols = []
            meds = []
            for root in args.roots:
                q1, med, q3 = summary([r[name] for r in runs[(root, w)]])
                spread = (q3 - q1) / med if med else 0.0
                meds.append(med)
                flag = " !" if spread > bound / 3 else ""
                cols.append(f"median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.1%}{flag}")
            line = f"  {name:28s} " + " | ".join(cols)
            if len(meds) == 2 and meds[0]:
                line += f" | change {meds[1] / meds[0] - 1:+.1%}"
            line += f" (bound {bound:.0%}, {m['better']} is better)"
            print(line)


if __name__ == "__main__":
    main()
