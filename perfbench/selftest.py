#!/usr/bin/env python3
"""Self-test of the mscp benchmark.

    python3 perfbench/selftest.py [--seconds S] [workload ...]

For each workload (all four by default) it runs perfbench/run.py:

  1. twice on the default seed, untraced: both runs pass every check
     and report bit-identical sim_* metrics;
  2. once on a held-out seed: every check passes, at least one sim_*
     metric differs from the default seed's, and the verdict summary
     (verify-3cpu) does not;
  3. once traced on the default seed: every check passes, which
     includes the binary's own comparison of the traced pass's
     events, messages per class and link bits with an untraced
     pass's.

run.py itself checks each run's metric names against BENCHMARK.json.
When all four workloads run, every per-layer metric of BENCHMARK.json
must also be computed by at least one of the traced runs, rather than
read 0 on all of them. Exits non-zero when anything fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("paper-grid", "conc-hot", "conc-wide", "verify-3cpu")
DEFAULT_SEED = 1
HELD_OUT_SEED = 1000003


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         cwd=HERE.parent)
    lines = res.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    run_line = {"info": {}}
    for line in lines[:-1]:
        if line.startswith('{"run"'):
            run_line = json.loads(line)
    return res.returncode, result, run_line


def sim(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if k.startswith("sim_")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = ap.parse_args()

    failures = []
    never_computed = None

    def expect(ok, what):
        print(f"  {'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    for w in args.workloads:
        print(f"{w}:", flush=True)
        runs = [run(w, DEFAULT_SEED, args.seconds, 0) for _ in range(2)]
        held = run(w, HELD_OUT_SEED, args.seconds, 0)
        traced = run(w, DEFAULT_SEED, args.seconds, 1)
        for label, (code, res, _) in (("default seed, run 1", runs[0]),
                                      ("default seed, run 2", runs[1]),
                                      ("held-out seed", held),
                                      ("traced run", traced)):
            expect(code == 0 and res is not None and res["correct"],
                   f"{label}: every check passes")
        if any(r[1] is None for r in runs + [held]):
            continue
        expect(sim(runs[0][1]) == sim(runs[1][1]),
               "sim_* bit-identical across two runs of one seed")
        expect(sim(runs[0][1]) != sim(held[1]),
               "sim_* differ on the held-out seed")
        expect(runs[0][2]["info"].get("verdicts") ==
               held[2]["info"].get("verdicts"),
               "verdicts identical on the held-out seed")
        zero = set(traced[2].get("not_exercised", []))
        never_computed = zero if never_computed is None \
            else never_computed & zero

    if set(args.workloads) == set(WORKLOADS):
        print("all workloads:", flush=True)
        expect(not never_computed,
               f"every per-layer metric computed somewhere "
               f"(never: {sorted(never_computed or [])})")

    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
