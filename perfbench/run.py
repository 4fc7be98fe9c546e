#!/usr/bin/env python3
"""PARULEL benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload closure|labeling|orderbook|cluster \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds parulel_cli, parulel_site and
the benchmark's tracer from the checkout's sources (CMake, into
$CARGO_TARGET_DIR or .bench_build), runs the workload's fixed work and
checks every output. --trace 0 prints the end-to-end metrics, --trace 1
runs the traced layer suite and prints the per-layer metrics. The last
line of stdout is {"correct", "attempted", "failed", "metrics"}; all
progress goes to stderr. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from pb import layers, workloads  # noqa: E402


def build(root):
    """Configure and build the benchmark package; returns the bin dir or
    None. Build output goes to stderr."""
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, base, "perfbench")
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", "4", "--target", "parulel_cli",
         "parulel_site", "perfbench_trace"],
    ]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=840)
        if r.returncode != 0:
            return None
    return os.path.join(build_dir, "bin")


def host_steal_ticks():
    """CPU time the hypervisor gave to others (/proc/stat), in ticks."""
    try:
        with open("/proc/stat") as f:
            return int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    steal0 = host_steal_ticks()
    bindir = build(root)
    if bindir is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    scratch = os.path.join(os.path.dirname(bindir), "runs")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-" % args.workload, dir=scratch)
    try:
        ctx = workloads.Ctx(bindir, workdir, args.seed, args.seconds)
        if args.trace:
            res = layers.run_suite(ctx)
        else:
            res = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    res.notes["host_steal_ticks"] = host_steal_ticks() - steal0
    for cause in res.retries:
        print("perfbench: run again after %s" % cause, file=sys.stderr)
    for cause in res.causes:
        print("perfbench: %s" % cause, file=sys.stderr)
    for name, m in sorted(res.metrics.items()):
        print("perfbench: %-34s %14.4f %s" % (name, m["value"], m["unit"]),
              file=sys.stderr)
    for name, value in sorted(res.notes.items()):
        print("perfbench: note %-29s %14.4f" % (name, value), file=sys.stderr)
    print(json.dumps({"correct": res.correct, "attempted": res.attempted,
                      "failed": res.failed, "metrics": res.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
