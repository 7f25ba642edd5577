#!/usr/bin/env python3
"""Compare two source trees (parent against change, or one tree against
itself) on the benchmark.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR --runs 10
    python3 perfbench/compare.py . . --runs 10 --workloads grind   # same vs same

Each tree must hold ``BENCHMARK.json`` and ``perfbench/``; the bounds and
the run length come from the second tree's ``BENCHMARK.json``. Run ``i``
of each workload uses the same seed on both sides and alternates which side
goes first. For every metric the table gives each side's median,
quartiles and spread (quartile distance over median), then a verdict:

* ``unresolved`` when either side's spread exceeds the bound, unless every
  run of one side beats every run of the other;
* ``worse`` when the change's median is worse than the parent's by more
  than the bound;
* ``better`` when the change wins at least nine tenths of the pairs and the
  medians differ by more than the parent's quartile distance;
* ``unchanged`` otherwise.

Tuning seeds are 1, 2, ...; ``--held-out`` switches to a disjoint range
that is kept for confirming a claim once the change is final. Per-layer
metrics (``--trace 1``) have no bound and get no verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HELD_OUT_FIRST_SEED = 900_001


def run_once(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {tree} {workload} seed {seed} exited {proc.returncode}\n"
                 f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and quartile distance over median."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def verdict(a: list[float], b: list[float], better: str, bound) -> str:
    if bound is None:
        return "-"
    sign = 1.0 if better == "lower" else -1.0
    a_med, a_q1, a_q3, a_spread = summary(a)
    b_med, _, _, b_spread = summary(b)
    if all(sign * x < sign * y for x in b for y in a):
        every = "better (every run)"
    elif all(sign * x > sign * y for x in b for y in a):
        every = "worse (every run)"
    else:
        every = None
    if max(a_spread, b_spread) > bound:
        return every or "unresolved"
    if a_med and sign * (b_med - a_med) / abs(a_med) > bound:
        return "worse"
    wins = sum(sign * y < sign * x for x, y in zip(a, b))
    if wins >= 0.9 * len(a) and sign * (a_med - b_med) > a_q3 - a_q1:
        return "better"
    return "unchanged"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--runs", type=int, default=10, help="runs per side and workload")
    ap.add_argument("--workloads", help="comma-separated subset (default: all)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--held-out", action="store_true", help="use the held-out seeds")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: m for m in declared}
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in spec["workloads"]]
    first = HELD_OUT_FIRST_SEED if args.held_out else 1
    seeds = list(range(first, first + args.runs))
    print(f"# parent={args.parent} change={args.change} seeds={seeds[0]}..{seeds[-1]} "
          f"seconds={spec['run_seconds']} trace={args.trace}")
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(getattr(args, side), workload, seed,
                                           spec["run_seconds"], args.trace))
        for side, results in runs.items():
            print(f"{workload} {side}: correct={all(r['correct'] for r in results)} "
                  f"attempted={sum(r['attempted'] for r in results)} "
                  f"failed={sum(r['failed'] for r in results)}")
        print(f"{'workload':15s} {'metric':36s} {'unit':6s} "
              f"{'parent median [q1, q3] spread':40s} {'change median [q1, q3] spread':40s} "
              f"{'change':>8s} {'bound':>6s} verdict")
        for name, meta in metrics.items():
            a = [r["metrics"][name]["value"] for r in runs["parent"]]
            b = [r["metrics"][name]["value"] for r in runs["change"]]
            cols = []
            for values in (a, b):
                med, q1, q3, spread = summary(values)
                cols.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] {spread:.3f}")
            a_med, b_med = statistics.median(a), statistics.median(b)
            change = f"{(b_med - a_med) / abs(a_med):+.1%}" if a_med else "n/a"
            bound = meta.get("bound")
            print(f"{workload:15s} {name:36s} {meta['unit']:6s} {cols[0]:40s} {cols[1]:40s} "
                  f"{change:>8s} {bound if bound is not None else '-':>6} "
                  f"{verdict(a, b, meta['better'], bound)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
