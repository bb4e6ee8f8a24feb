#!/usr/bin/env python3
"""Run-to-run spread and set-to-set agreement of the end-to-end metrics.

Runs the BENCHMARK.json command once per seed on each chosen workload,
as a set of runs; with --sets 2 it runs every workload's set again
after all the first sets. Per set and metric it prints the median of the
runs and the distance between the first and third quartiles as a share
of the median, next to the metric's bound; per later set, the change of
each median from the first set's. Run from the repository root:

    python3 perfbench/spread.py --runs 10 [--sets 2] [--first-seed 1] [workload ...]

Exits 1 if a run fails or prints an incorrect result, a spread exceeds
its metric's bound, or a later set's median differs from the first
set's by more than the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    return json.loads(lines[-1])


def flag(value, bound):
    if value <= bound / 3:
        return ""
    return "  > bound/3" if value <= bound else "  > BOUND"


def main():
    bench = json.load(open("BENCHMARK.json"))
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("workloads", nargs="*")
    a = p.parse_args()
    names = a.workloads or [w["name"] for w in bench["workloads"]]
    seeds = range(a.first_seed, a.first_seed + a.runs)
    ok = True
    first = {}
    for s in range(a.sets):
        for w in names:
            results = []
            for seed in seeds:
                r = run(bench["command"], w, seed, bench["run_seconds"])
                if not r["correct"] or r["failed"]:
                    print(f"{w} seed {seed}: incorrect result {r}")
                    ok = False
                results.append(r)
            print(f"== {w}, set {s + 1} ({a.runs} runs)", flush=True)
            for m in bench["end_to_end"]:
                name, bound = m["name"], m["bound"]
                vals = [r["metrics"][name]["value"] for r in results]
                med = statistics.median(vals)
                q = statistics.quantiles(vals, n=4)
                spread = (q[2] - q[0]) / med if med else float("inf")
                ok &= spread <= bound
                line = (f"  {name:<14} median {med:<14.6g} spread {spread:7.4f}"
                        f"  bound {bound}{flag(spread, bound)}")
                if s == 0:
                    first[w, name] = med
                else:
                    change = med / first[w, name] - 1
                    ok &= abs(change) <= bound
                    line += f"  vs set 1 {change:+.4f}{flag(abs(change), bound)}"
                print(line, flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
