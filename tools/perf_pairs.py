#!/usr/bin/env python3
"""Compare two checkouts on one perfbench workload in alternating pairs.

    python3 tools/perf_pairs.py --base DIR --change DIR \\
        --workload W --pairs K --seconds S --seed N

Runs ``perfbench/run.py --trace 0`` in each checkout, K times each,
alternating which side runs first so that drift on the host (clock,
cache, neighbours) falls on both sides alike. Each checkout builds into
its own ``.bench_build/``: CARGO_TARGET_DIR is removed from the
environment of every run, so the two sides never share a build tree.
The first run on each side includes its build, which the workload's
own clocks do not see.

Per pair it prints every end-to-end metric of BENCHMARK.json for both
sides. Then, per metric: each side's median and interquartile range,
the change in percent between the medians and how many pairs the
change won (strictly better, by the metric's ``better``). Last it
names every ``sim_*`` metric whose values differ between the sides
(simulated results must not move with host speed) and every run that
reported ``correct: false``. Nothing is written to either checkout except by
perfbench itself. The exit code is 0 when every run produced a result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def run_side(checkout, workload, seconds, seed):
    """One perfbench run in @p checkout; its result record or None."""
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, cwd=checkout, env=env, text=True,
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines = res.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(res.stderr[-2000:])
        print(f"perf_pairs: no result from {checkout} "
              f"(exit {res.returncode})", file=sys.stderr)
        return None
    return {"correct": record.get("correct", False),
            "metrics": {name: m["value"]
                        for name, m in record["metrics"].items()}}


def quartiles(values):
    """(q1, q3) of @p values, inclusive method; equal for one value."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def fmt(v):
    return f"{v:.6g}"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--seed", required=True, type=int)
    args = ap.parse_args()

    spec = json.loads((args.base / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    runs = {"base": [], "change": []}
    incorrect = []

    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            rec = run_side(sides[side], args.workload, args.seconds,
                           args.seed)
            if rec is None:
                return 1
            if not rec["correct"]:
                incorrect.append(f"pair {i + 1} {side}")
            runs[side].append(rec["metrics"])
        print(f"pair {i + 1} ({order[0]} first)")
        for name, _ in metrics:
            b = runs["base"][i][name]
            c = runs["change"][i][name]
            print(f"  {name:22} base {fmt(b):>12}  change {fmt(c):>12}")
        sys.stdout.flush()

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs of "
          f"{args.seconds:g} s")
    print(f"{'metric':22} {'base med':>12} {'base IQR':>12} "
          f"{'change med':>12} {'change IQR':>12} {'change':>9} "
          f"{'wins':>6}")
    moved = []
    for name, better in metrics:
        base = [r[name] for r in runs["base"]]
        change = [r[name] for r in runs["change"]]
        bmed = statistics.median(base)
        cmed = statistics.median(change)
        q1, q3 = quartiles(base)
        c1, c3 = quartiles(change)
        pct = (cmed - bmed) / bmed * 100 if bmed else 0.0
        if better == "higher":
            wins = sum(c > b for b, c in zip(base, change))
        else:
            wins = sum(c < b for b, c in zip(base, change))
        print(f"{name:22} {fmt(bmed):>12} {fmt(q3 - q1):>12} "
              f"{fmt(cmed):>12} {fmt(c3 - c1):>12} {pct:+8.2f}% "
              f"{wins:>3}/{args.pairs}")
        if name.startswith("sim_") and base != change:
            moved.append(name)
    print("sim_* metrics that differ between the sides: "
          + (", ".join(moved) if moved else "none"))
    print("runs with correct: false: "
          + (", ".join(incorrect) if incorrect else "none"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
