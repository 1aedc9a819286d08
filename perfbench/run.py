#!/usr/bin/env python3
"""Repository benchmark for the WASP simulator.

Builds the simulator libraries and the benchmark binary from source into
.bench_build/ (CMake, Release), then runs one workload:

    python3 perfbench/run.py --workload paper16-live --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all       # every workload, one after another
    python3 perfbench/run.py --selftest           # the benchmark's own tests

Workloads (all topk in wasp mode, one simulation thread):
  paper16-live          16-site paper testbed, random-walk bandwidth and load
  uniform256-steady     256-site uniform clique, 1000 ev/s per site, steady
  paper16-chaos-traced  paper testbed, seeded fault cycles, hot standbys,
                        JSONL trace serialized into a counting sink

The last stdout line is one JSON object {correct, attempted, failed, metrics}:
the end-to-end metrics with --trace 0, the per-layer metrics of a separate
profiled run with --trace 1. Lines above it print both tables with units and
sample counts, the host's cores and CPU model, and any failed check. Run from
the root of a checkout; the build needs ../src next to this directory.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "wasp_perfbench"


def build():
    """Configures (once) and builds; returns False after printing the log."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write(f"build failed: {' '.join(cmd)}\n")
            return False
    return True


def run_workload(name, seed, seconds, trace, capture):
    cmd = [str(BINARY), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, stdout=subprocess.PIPE if capture else None,
                          text=True)


def run_all(seed, seconds, trace):
    """Runs every workload of BENCHMARK.json and merges their results."""
    names = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = run_workload(name, seed, seconds, trace, capture=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 1
    if args.selftest:
        return subprocess.run(["ctest", "--test-dir", str(BUILD),
                               "--output-on-failure"]).returncode
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, args.trace,
                        capture=False).returncode


if __name__ == "__main__":
    sys.exit(main())
