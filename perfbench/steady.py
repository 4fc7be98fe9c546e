#!/usr/bin/env python3
"""Steadiness: run workloads repeatedly and print each metric's spread.

    python3 perfbench/steady.py [--workloads closure,orderbook] [--runs 10]
        [--seconds S] [--trace 0|1] [--first-seed 1]

Run from the root of a checkout. Each workload runs --runs times, seed
first-seed, first-seed+1, ...; for every metric it prints the median,
the first and third quartile (statistics.quantiles(n=4)) and the spread
(Q3 - Q1) / median, marks an end-to-end spread at or above a third of its
bound in BENCHMARK.json with '!', and prints each workload's share of
failed operations. Each run's line shows the CPU time the hypervisor gave
to other guests while it ran (ticks of /proc/stat steal), which is where
most of the spread on a shared host comes from. The bounds in
BENCHMARK.json come from this output.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / med if med else 0.0


def main():
    bench = json.load(open("BENCHMARK.json"))
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    declared = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]

    worst = 0
    for wl in args.workloads.split(","):
        values, attempted, failed, wrong = {}, 0, 0, 0
        for k in range(args.runs):
            seed = args.first_seed + k
            cmd = ["python3", os.path.join(HERE, "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            out = subprocess.run(cmd, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True)
            steal = [ln.split()[-1] for ln in out.stderr.splitlines()
                     if "note host_steal_ticks" in ln]
            try:
                doc = json.loads(out.stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                print("%s seed %d: no result (exit %d)" % (wl, seed, out.returncode))
                worst = 1
                continue
            missing = set(declared) ^ set(doc["metrics"])
            if missing:
                print("%s seed %d: metrics differ from BENCHMARK.json: %s" % (
                    wl, seed, sorted(missing)))
                worst = 1
            attempted += doc["attempted"]
            failed += doc["failed"]
            wrong += 0 if doc["correct"] else 1
            for name, m in doc["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d: attempted %d failed %d correct %s host steal %s" % (
                wl, seed, doc["attempted"], doc["failed"], doc["correct"],
                "".join(steal) or "?"), flush=True)
        print("\n== %s: %d runs, failed share %d/%d, %d incorrect" % (
            wl, args.runs, failed, attempted, wrong))
        print("%-36s %14s %14s %14s %8s" % ("metric", "median", "q1", "q3", "spread"))
        for name in sorted(values):
            vs = values[name]
            if len(vs) < 2:
                continue
            q1, med, q3, sp = spread(vs)
            flag = ""
            if name in bounds and name != "setup_s" and sp >= bounds[name] / 3:
                flag = " !"
                worst = 1
            print("%-36s %14.4f %14.4f %14.4f %8.4f%s" % (name, med, q1, q3, sp, flag))
        print(flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
