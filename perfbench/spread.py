#!/usr/bin/env python3
"""Measure the seed-to-seed spread of the end-to-end metrics.

Usage, from the root of a checkout:

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1]
        [--save FILE] [--against FILE] [workload ...]

Runs the benchmark once per seed on each workload (all workloads by
default) and prints, per metric, the median and the distance between the
first and third quartile as a share of the median, next to a third of the
metric's bound from BENCHMARK.json. A spread above that third is marked.
--save writes the values to FILE; --against compares each median with the
one in a FILE saved by an earlier set of runs and marks a median that is
worse than it by more than the metric's bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save")
    ap.add_argument("--against")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    higher = {m["name"] for m in bench["end_to_end"] if m["better"] == "higher"}
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)
    saved = {}
    ok = True
    for name in names:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                print("%s seed %d failed:\n%s" % (name, seed, out.stderr), file=sys.stderr)
                ok = False
                continue
            res = json.loads(out.stdout.strip().splitlines()[-1])
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print("%s seed %d: %s" % (name, seed, json.dumps({k: round(v["value"], 4) for k, v in res["metrics"].items()})), flush=True)
        saved[name] = values
        for k in sorted(values):
            vs = values[k]
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
            spread = (q[2] - q[0]) / med if med else float("inf")
            mark = "" if spread <= bounds[k] / 3 else "  <-- above bound/3"
            drift = ""
            if k in earlier.get(name, {}):
                before = statistics.median(earlier[name][k])
                worse = (before - med if k in higher else med - before) / before if before else 0.0
                drift = "  vs earlier %+.4f" % worse
                if worse > bounds[k]:
                    drift += "  <-- worse than the earlier median by more than the bound"
            print("%-16s %-18s median %-14.6g spread %.4f  bound/3 %.4f%s%s" % (name, k, med, spread, bounds[k] / 3, mark, drift))
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
