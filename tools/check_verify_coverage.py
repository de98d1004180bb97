#!/usr/bin/env python3
"""Gate the model-checker sweep's coverage against a checked-in baseline.

``bench/verify_sweep`` writes a per-config coverage record (state and
edge counts, the settled-state digest, exhaustion,
audit/liveness/refinement verdicts) to the path in
``$MSCP_VERIFY_COVERAGE_OUT``.  This script diffs that record against
``tests/verify/sweep_baseline.json`` and fails on any regression:

* a config present in the baseline but missing from the run,
* a config that was exhausted (``complete``) and no longer is,
* a clean verdict (``audit_ok`` / ``liveness_clean`` / ``refine_clean``
  / ``violations``) that went bad,
* any drift in what each exploration covered: the state counts
  (``states_full`` / ``states_por`` / ``settled_unique``), the edge
  counts (``edges_full`` / ``edges_por``) and the full run's digest over
  its distinct settled states (``settled_digest``, a hex string).
  Exploration is deterministic, so a change means the protocol engine
  or the checker changed and the baseline must be re-recorded on
  purpose. Edges and the digest pin more than the state counts do: a
  checker change that loses a field of the engine state can keep every
  count and still reach different states. The digest is defined over
  the checker's state hash (``hashBytes`` in src/verify/canon.hh), so a
  deliberate change of that hash re-records it too.

Intentional changes are recorded with ``--update``, which rewrites the
baseline from the current run; commit the result.  New configs absent
from the baseline also require ``--update`` (the gate must know about
every row it protects).

Usage:
    check_verify_coverage.py CURRENT.json [--baseline PATH] [--update]

Exit status: 0 clean, 1 regression (or unrecorded config), 2 usage.
"""

import argparse
import json
import os
import sys

DEFAULT_BASELINE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tests", "verify", "sweep_baseline.json")

# Fields where only one direction is a regression (1 -> 0).  Coverage
# fields are compared exactly; see the module docstring.
BOOL_FIELDS = ("complete", "audit_ok", "liveness_clean", "refine_clean")
EXACT_FIELDS = ("states_full", "states_por", "edges_full", "edges_por",
                "settled_unique", "settled_digest")


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    configs = doc.get("configs")
    if not isinstance(configs, dict) or not configs:
        raise ValueError(f"{path}: no 'configs' object")
    return configs


def compare(base, cur):
    """Return a list of human-readable regression strings."""
    problems = []
    for name, b in sorted(base.items()):
        c = cur.get(name)
        if c is None:
            problems.append(f"{name}: missing from current sweep")
            continue
        if c.get("violations", 0) and not b.get("violations", 0):
            problems.append(f"{name}: violations appeared")
        for f in BOOL_FIELDS:
            if b.get(f, 0) and not c.get(f, 0):
                problems.append(f"{name}: {f} regressed 1 -> 0")
        for f in EXACT_FIELDS:
            if b.get(f) != c.get(f):
                problems.append(
                    f"{name}: {f} drifted {b.get(f)} -> {c.get(f)} "
                    "(re-record with --update if intentional)")
    for name in sorted(set(cur) - set(base)):
        problems.append(
            f"{name}: not in baseline (record it with --update)")
    return problems


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("current", help="coverage JSON written by the sweep")
    ap.add_argument("--baseline", default=DEFAULT_BASELINE)
    ap.add_argument("--update", action="store_true",
                    help="rewrite the baseline from the current run")
    args = ap.parse_args(argv)

    cur = load(args.current)

    if args.update:
        with open(args.baseline, "w", encoding="utf-8") as f:
            json.dump({"configs": cur}, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"baseline rewritten: {args.baseline} "
              f"({len(cur)} configs)")
        return 0

    base = load(args.baseline)
    problems = compare(base, cur)
    if problems:
        print("verify-coverage regressions:", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    print(f"verify coverage OK: {len(base)} configs, "
          "no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
