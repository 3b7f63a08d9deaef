#!/usr/bin/env python3
"""End-to-end benchmark of the CAD toolkit (see perfbench/README.md).

One run:
    python3 perfbench/run.py --workload flow|wmin|eco|serve --seed N \
        --seconds S --trace 0|1
builds the toolkit from this checkout's src/ into .bench_build/ (Release,
fixed here), runs the workload once and prints one JSON result line last.

Repeat mode, for steadiness checks (medians and quartiles per metric):
    python3 perfbench/run.py --workload eco --repeat 10 --seed 101

Self-check (the checks' corruption test, and that a checkout without
src/ exits non-zero without printing a result):
    python3 perfbench/run.py --self-check
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench-out"
WORKLOADS = ("flow", "wmin", "eco", "serve")
# NF_THREADS, pinned rather than left to the toolkit's default (hardware
# concurrency). The driver also takes the serve daemon's worker count
# (default 8) and its client connections from it.
THREADS = min(4, len(os.sched_getaffinity(0)))
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(targets):
    """Configure (once) and build `targets`; the build output goes to
    stderr so the result line stays the last line of stdout."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"perfbench: no toolkit sources under {ROOT / 'src'}")
        return False
    if not (BUILD / "CMakeCache.txt").is_file():
        r = subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                            str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            return False
    r = subprocess.run(["cmake", "--build", str(BUILD), "-j",
                        str(len(os.sched_getaffinity(0))), "--target",
                        *targets], stdout=sys.stderr, stderr=sys.stderr)
    return r.returncode == 0


def run_once(workload, seed, seconds, trace):
    """Run the driver once; returns (exit code, parsed result or None)."""
    OUT.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, NF_THREADS=str(THREADS), NF_CHECK_INVARIANTS="0")
    cmd = [str(BUILD / "perfbench_driver"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out-dir", str(OUT)]
    try:
        p = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s")
        return 1, None
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"perfbench: driver exited {p.returncode} without a result")
        return p.returncode or 1, None
    return p.returncode, result


def declared_metrics(trace):
    """name -> unit of the metrics BENCHMARK.json declares for a run."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def repeat(args):
    want = declared_metrics(args.trace)
    per_metric = {}
    for i in range(args.repeat):
        rc, res = run_once(args.workload, args.seed + i, args.seconds,
                           args.trace)
        if res is None or rc != 0:
            log(f"perfbench: run {i} failed (exit {rc})")
            return 1
        got = {k: m["unit"] for k, m in res["metrics"].items()}
        if got != want:
            log(f"perfbench: metrics differ from BENCHMARK.json: {got}")
            return 1
        share = res["failed"] / res["attempted"]
        print(f"seed {args.seed + i}: attempted {res['attempted']}, "
              f"failed share {share:.6f}, correct {res['correct']}: " +
              ", ".join(f"{k} {m['value']:.6g}"
                        for k, m in res["metrics"].items()), flush=True)
        for name, m in res["metrics"].items():
            per_metric.setdefault(name, (m["unit"], []))[1].append(m["value"])
    if args.repeat < 2:
        return 0
    print(f"{'metric':32} {'unit':>8} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'iqr/median':>10}")
    for name, (unit, vals) in per_metric.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:32} {unit:>8} {med:14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:10.4f}")
    return 0


def self_check():
    if not build(["perfbench_selftest", "perfbench_driver"]):
        return 1
    if subprocess.run([str(BUILD / "perfbench_selftest")]).returncode != 0:
        log("self-check: a corrupted result passed a check")
        return 1
    # A checkout holding only the benchmark's own files must fail fast.
    bare = ROOT / ".bench_build" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", bare / "perfbench")
    try:
        p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                            "flow", "--seed", "1", "--seconds", "1",
                            "--trace", "0"], cwd=bare, text=True,
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if p.returncode == 0 or '"metrics"' in p.stdout:
        log("self-check: a checkout without src/ produced a result")
        return 1
    print(f"self-check passed (bare checkout exited {p.returncode}, "
          "no result)")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if args.self_check:
        return self_check()
    if args.workload is None:
        ap.error("--workload is required")
    if not build(["perfbench_driver"]):
        return 1
    if args.repeat:
        return repeat(args)
    rc, res = run_once(args.workload, args.seed, args.seconds, args.trace)
    if res is None:
        return rc or 1
    print(json.dumps(res))
    return 0 if rc == 0 and res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
