#!/usr/bin/env python3
"""Build and run one workload of the mscp benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root. The script builds perfbench/ (which
compiles the library from src/) into .bench_build/ -- or into
$CARGO_TARGET_DIR when that is set -- runs the benchmark binary, checks
the metrics it computed against BENCHMARK.json, and prints as its
last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list, in that order; a per-layer metric the
workload does not compute reads 0. Lines before it describe the run:
its identity (nproc, build type, compiler, MSCP_TRACE/MSCP_METRICS,
git sha or source digest, threads, seed) and, for traced runs, the
per-layer self-time table and where the Chrome trace was written.
The exit code is 0 only when every check passed.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("paper-grid", "conc-hot", "conc-wide", "verify-3cpu")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = Path(target)
    return path if path.is_absolute() else ROOT / path


def build():
    """Configure and build the binary; return its path or None."""
    bdir = build_root() / f"perfbench-{BUILD_TYPE}"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "Makefile").exists():  # written once configure succeeds
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs,
                  "--target", "mscp_perfbench"])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT, text=True,
                                 timeout=840)
        except (OSError, subprocess.TimeoutExpired) as exc:
            log(f"build step failed: {exc}")
            return None
        if res.returncode != 0:
            sys.stderr.write(res.stdout[-4000:])
            log(f"build step failed: {' '.join(cmd)}")
            return None
    exe = bdir / "mscp_perfbench"
    return exe if exe.exists() else None


def source_identity():
    """git sha when the tree is a repository, else a source digest."""
    sha = None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True,
                             timeout=10)
        if res.returncode == 0:
            sha = res.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return sha, digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as exc:
        log(f"cannot read {spec_path}: {exc}")
        return 2
    traced = args.trace == "1"
    wanted = spec["per_layer" if traced else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    exe = build()
    if exe is None:
        return 2

    cmd = [str(exe), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    if traced:
        trace_dir = build_root() / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out",
                str(trace_dir / f"{args.workload}-seed{args.seed}.json")]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=170)
    except subprocess.TimeoutExpired:
        log("workload timed out")
        return 2

    record = None
    for line in res.stdout.splitlines():
        if line.startswith("RESULT "):
            record = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if record is None:
        log(f"mscp_perfbench exited {res.returncode} without a result")
        return 2

    attempted = record["attempted"]
    failed = record["failed"]
    computed = record["metrics"]

    # Self-test against BENCHMARK.json: the binary computes no name
    # that BENCHMARK.json lacks, and an untraced run computes every
    # end-to-end metric, each a finite positive number. A per-layer
    # metric of a layer the workload does not exercise reads 0; the
    # run line lists those names.
    attempted += 1
    unknown = sorted(set(computed) - set(units))
    missing = [n for n in units if n not in computed]
    if unknown or (missing and not traced):
        failed += 1
        log(f"metric names differ from BENCHMARK.json: "
            f"unknown {unknown}, missing {missing}")
    metrics = {n: computed.get(n, 0.0) for n in units}
    for name, value in metrics.items():
        attempted += 1
        ok = isinstance(value, (int, float)) and math.isfinite(value)
        if ok and not traced:
            ok = value > 0
        if not ok:
            failed += 1
            log(f"metric {name} has value {value!r}")
    if res.returncode != 0 and failed == record["failed"] == 0:
        failed += 1
        log(f"mscp_perfbench exited {res.returncode}")

    sha, digest = source_identity()
    identity = dict(record["identity"], git_sha=sha, source_digest=digest,
                    workload=args.workload, seed=args.seed,
                    seconds=args.seconds, trace=int(traced))
    run = {"run": identity, "info": record["info"]}
    if traced:
        run["not_exercised"] = missing
    print(json.dumps(run))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
