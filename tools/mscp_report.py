#!/usr/bin/env python3
"""Terminal reporter for MSCP windowed-metrics JSON Lines.

Reads the file(s) written through $MSCP_METRICS_OUT (one JSON object
per window; schema at exportMetricsJsonLines in src/sim/metrics.hh)
and prints, per (source, label) run:

 - a per-window table of the scalar series (counters are already
   per-window deltas at export time, gauges are levels);
 - an ASCII heatmap per grid series -- rows are grid rows (network
   stages), columns are time windows, shade scaled to the hottest
   cell -- the stage x port contention picture at terminal width;
 - warm-up / steady-state detection: a mean-shift scan over sliding
   windows of the signal series reports where the run settles, so
   summary statistics can exclude the cold start.

Stdlib only; no third-party dependencies.

Usage:
  python3 tools/mscp_report.py metrics.jsonl [more.jsonl ...]
      [--source concurrent] [--label fault_soak/all]
      [--series name ...] [--signal name] [--width 64]
"""

import argparse
import json
import sys

SHADES = " .:-=+*#%@"


def load_runs(paths):
    """Parse files into {(source, label): [window records]}."""
    runs = {}
    for path in paths:
        with open(path) as f:
            for ln, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as e:
                    print(f"{path}:{ln}: bad JSON line: {e}",
                          file=sys.stderr)
                    continue
                if "metrics" not in rec or "series" not in rec:
                    continue
                key = (rec["metrics"], rec.get("label", ""))
                runs.setdefault(key, []).append(rec)
    for recs in runs.values():
        recs.sort(key=lambda r: r["window"])
    return runs


def classify(series):
    """Split one window's series dict by JSON shape: scalars,
    histograms (flat arrays) and grids (nested arrays)."""
    scalars, hists, grids = [], [], []
    for name, v in series.items():
        if isinstance(v, list):
            if v and isinstance(v[0], list):
                grids.append(name)
            else:
                hists.append(name)
        else:
            scalars.append(name)
    return scalars, hists, grids


def downsample(values, width):
    """Group values into <= width buckets (summing each bucket);
    returns (bucketed values, windows per bucket)."""
    stride = max(1, -(-len(values) // width))
    out = [sum(values[i:i + stride])
           for i in range(0, len(values), stride)]
    return out, stride


def print_table(recs, names, width):
    if not names:
        return
    rows, stride = downsample(list(range(len(recs))), width)
    stride = max(1, -(-len(recs) // min(width, 24)))
    print(f"  per-window series (every {stride} window(s)):")
    head = f"  {'window':>8} {'end_tick':>10}"
    for n in names:
        head += f" {n[-14:]:>14}"
    print(head)
    for i in range(0, len(recs), stride):
        r = recs[i]
        line = f"  {r['window']:>8} {r['end_tick']:>10}"
        for n in names:
            v = r["series"].get(n, 0)
            if isinstance(v, float):
                line += f" {v:>14.1f}"
            else:
                line += f" {v:>14}"
        print(line)


def heatmap(recs, name, width):
    """ASCII heatmap of grid series @name: one character row per
    grid row, one column per (bucketed) time window."""
    grids = [r["series"].get(name) for r in recs]
    grids = [g for g in grids if g is not None]
    if not grids:
        return
    nrows = len(grids[0])
    per_row = [[sum(g[r]) for g in grids] for r in range(nrows)]
    bucketed = [downsample(row, width)[0] for row in per_row]
    peak = max((max(row) for row in bucketed), default=0)
    print(f"  {name} heatmap (rows = grid row / stage, "
          f"cols = time ->, peak cell {peak}):")
    for r, row in enumerate(bucketed):
        chars = "".join(
            SHADES[min(len(SHADES) - 1,
                       (v * (len(SHADES) - 1) + peak - 1) // peak)]
            if peak else SHADES[0]
            for v in row)
        print(f"    row {r:>2} |{chars}|")


def steady_state(recs, signal):
    """Mean-shift scan over sliding windows: the steady state is
    the longest contiguous stretch whose sliding means stay within
    20% (or one absolute unit) of the median sliding mean -- robust
    to both a cold-start ramp and an end-of-run drain. Returns
    (first_index, last_index, mean) or None if no stretch covers at
    least a third of the run."""
    values = [float(r["series"].get(signal, 0)) for r in recs]
    n = len(values)
    if n < 4:
        return None
    k = max(2, n // 8)
    means = [sum(values[i:i + k]) / k for i in range(n - k + 1)]
    target = sorted(means)[len(means) // 2]
    tol = max(abs(target) * 0.2, 1.0)

    best = cur = None
    for i, m in enumerate(means):
        if abs(m - target) <= tol:
            cur = (cur[0], i) if cur else (i, i)
            if not best or cur[1] - cur[0] > best[1] - best[0]:
                best = cur
        else:
            cur = None
    if not best:
        return None
    first, last = best[0], best[1] + k - 1
    if last - first + 1 < n // 3:
        return None
    mean = sum(values[first:last + 1]) / (last - first + 1)
    return first, last, mean


def report(key, recs, args):
    source, label = key
    span = recs[-1]["end_tick"] - recs[0]["end_tick"]
    w = span // (recs[-1]["window"] - recs[0]["window"]) \
        if recs[-1]["window"] > recs[0]["window"] else 0
    print(f"== {source} / {label}: {len(recs)} windows, "
          f"~{w} ticks each, ends at tick {recs[-1]['end_tick']} ==")
    scalars, hists, grids = classify(recs[-1]["series"])

    names = args.series or scalars[:6]
    print_table(recs, [n for n in names if n in scalars],
                args.width)

    for g in grids:
        if args.series and g not in args.series:
            continue
        heatmap(recs, g, args.width)

    signal = args.signal
    if not signal:
        for cand in ("proto.refs_done", "pt.refs"):
            if cand in scalars:
                signal = cand
                break
        else:
            signal = scalars[0] if scalars else None
    if signal:
        ss = steady_state(recs, signal)
        if ss is None:
            print(f"  steady state: not reached "
                  f"(signal {signal} keeps shifting)")
        else:
            first, last, mean = ss
            print(f"  steady state: windows "
                  f"{recs[first]['window']}..{recs[last]['window']} "
                  f"(warm-up {first} window(s), "
                  f"{len(recs) - 1 - last} trailing); "
                  f"{signal} mean {mean:.1f}/window")
    print()


def main():
    ap = argparse.ArgumentParser(
        description="Report on MSCP windowed-metrics JSON Lines")
    ap.add_argument("files", nargs="+",
                    help="JSON Lines files from $MSCP_METRICS_OUT")
    ap.add_argument("--source", help="only this engine source")
    ap.add_argument("--label", help="only this run label")
    ap.add_argument("--series", nargs="*",
                    help="only these series in tables/heatmaps")
    ap.add_argument("--signal",
                    help="series driving steady-state detection")
    ap.add_argument("--width", type=int, default=64,
                    help="max table rows / heatmap columns")
    args = ap.parse_args()

    runs = load_runs(args.files)
    shown = 0
    for key in sorted(runs):
        if args.source and key[0] != args.source:
            continue
        if args.label and key[1] != args.label:
            continue
        report(key, runs[key], args)
        shown += 1
    if not shown:
        print("no matching metrics records found", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
