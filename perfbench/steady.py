#!/usr/bin/env python3
"""Steadiness check: run each workload in two sets of N seeds and hold
every end-to-end metric to its bound.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --workloads sg-tree --runs 5 --first-seed 100

Each run is ``perfbench/run.py --trace 0`` in a fresh process, for
``run_seconds`` from ``BENCHMARK.json``; set ``k`` of a workload uses the
seeds ``first-seed + k * runs`` onwards.  For every metric of every set the
command prints the median, the quartiles (``statistics.quantiles(values,
n=4)``) and the spread ``(q3 - q1) / median``, then how far the second
set's median is worse than the first's.  A workload passes when, for every
end-to-end metric, each set's spread and the move of the median are within
the metric's bound in ``BENCHMARK.json``, and both sets fail the same share
of operations.  A spread above a third of its bound is flagged: that
leaves little room for a real regression to show.  Each run's full output
is kept in ``perfbench/out/steady/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sg-tree", "cspa-httpd", "tc-road-sharded")
#: sets of runs per workload whose medians are compared
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    log_dir = os.path.join(HERE, "out", "steady")
    os.makedirs(log_dir, exist_ok=True)
    with open(os.path.join(log_dir, f"{workload}-seed{seed}.log"), "w",
              encoding="utf-8") as handle:
        handle.write(completed.stdout + completed.stderr)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stdout + completed.stderr)
        raise SystemExit(f"{workload} seed {seed} exited with {completed.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def quartiles(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and the spread (q3 - q1) / median."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def summarize(workload: str, sets: list[list[dict]], spec: dict) -> bool:
    """Print one table per workload; True when it holds every bound."""
    metrics = {metric["name"]: metric for metric in spec["end_to_end"]}
    steady = True
    for index, results in enumerate(sets):
        walls = [result["wall_s"] for result in results]
        print(f"\n{workload} set {index + 1}: seeds {results[0]['seed']}-{results[-1]['seed']}, "
              f"wall {min(walls):.1f}-{max(walls):.1f} s")
    shares = [sorted({result["failed"] / result["attempted"] for result in results})
              for results in sets]
    print(f"  failed shares per set: {shares}")
    if any(share != shares[0] or len(share) != 1 for share in shares):
        print("  <-- the failed share differs between runs")
        steady = False
    print(f"  {'metric':22s} {'set':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s}")
    for name, metric in metrics.items():
        bound = metric["bound"]
        medians = []
        for index, results in enumerate(sets):
            median, q1, q3, spread = quartiles(
                [result["metrics"][name]["value"] for result in results])
            medians.append(median)
            flag = ""
            if spread > bound:
                flag = "  <-- above the bound"
                steady = False
            elif spread > bound / 3:
                flag = "  (above a third of the bound)"
            print(f"  {name:22s} {index + 1:3d} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.4f} {bound:6.3f}{flag}")
        for index, median in enumerate(medians[1:], start=2):
            worse = (median - medians[0]) / medians[0] if medians[0] else 0.0
            if metric["better"] == "higher":
                worse = -worse
            flag = ""
            if worse > bound:
                flag = "  <-- worse than set 1 by more than the bound"
                steady = False
            print(f"  {name:22s} median of set {index} worse than set 1 by {worse:+.4f}{flag}")
    return steady


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10, help="runs per set (at least 2)")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("need --runs >= 2")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = int(spec["run_seconds"])

    steady = True
    for workload in args.workloads:
        sets = []
        for index in range(SETS):
            results = []
            for offset in range(args.runs):
                seed = args.first_seed + index * args.runs + offset
                result = run_once(workload, seed, seconds)
                result["seed"] = seed
                print(f"{workload} seed {seed}: {result['wall_s']:.1f} s, "
                      f"attempted {result['attempted']}, failed {result['failed']}", flush=True)
                results.append(result)
            sets.append(results)
        steady = summarize(workload, sets, spec) and steady
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
