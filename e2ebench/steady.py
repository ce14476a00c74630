#!/usr/bin/env python3
"""Steadiness check of the end-to-end benchmark (README.md, "Steadiness").

    python3 e2ebench/steady.py [--workloads a,b] [--runs K] [--sets 2]
                               [--first-seed N] [--seconds S]

Run from the repository root. For each workload it runs the benchmark K
times, each with another seed, per set, printing each run's end-to-end
metrics as it ends. Then, for every end-to-end metric, it prints the
median, the quartiles (statistics.quantiles(values, n=4)), the quartile
spread as a share of the median, and the max/min spread. With two or more
sets (the same seeds each time) it compares each later set's median with
the first set's, in the metric's worse direction.

A metric is steady when its quartile spread is under a third of its
BENCHMARK.json bound (setup_s excepted: it only has to pass the set
comparison), and the sets agree when no later median is worse than the
first by more than the bound. Exits 1 when either check fails.
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
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        sys.exit("run failed: %s seed %d (exit %d)" % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit("incorrect or failed requests: %s seed %d: %s" % (workload, seed, lines[-1]))
    return {name: m["value"] for name, m in result["metrics"].items()}


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
        "maxmin": (max(values) - min(values)) / median if median else float("inf"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    ok = True
    for workload in workloads:
        sets = []
        for s in range(args.sets):
            values = {name: [] for name in metrics}
            for seed in seeds:
                result = run_once(workload, seed, seconds)
                for name in metrics:
                    values[name].append(result[name])
                print("  %s set %d seed %d: %s" % (workload, s + 1, seed, " ".join(
                    "%s=%.5g" % (name, result[name]) for name in metrics)))
                sys.stdout.flush()
            sets.append({name: summarize(v) for name, v in values.items()})
        print("== %s (%d runs x %d sets, seeds %d..%d, %g s)" % (
            workload, args.runs, args.sets, seeds[0], seeds[-1], seconds))
        for name, m in metrics.items():
            first = sets[0][name]
            steady = name == "setup_s" or first["spread"] < m["bound"] / 3
            line = "  %-22s median %12.4f  q1 %12.4f  q3 %12.4f  spread %6.3f  max/min %6.3f" % (
                name, first["median"], first["q1"], first["q3"], first["spread"],
                first["maxmin"])
            line += "  bound %.3f %s" % (m["bound"], "steady" if steady else "UNSTEADY")
            for later in sets[1:]:
                change = (later[name]["median"] - first["median"]) / first["median"]
                worse = change if m["better"] == "lower" else -change
                agree = worse <= m["bound"]
                line += "  | set median %12.4f (%+.3f) %s" % (
                    later[name]["median"], change, "agree" if agree else "DISAGREE")
                ok = ok and agree
            ok = ok and steady
            print(line)
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
