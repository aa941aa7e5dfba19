"""Run the benchmark repeatedly and record each metric's spread.

    python3 perfbench/steadiness.py --runs 10 --traced 2 \\
        [--workload NAME ...] [--out perfbench/steadiness.json]

For every workload, runs ``perfbench/run.py`` ``--runs`` times untraced
with seeds 1..runs and reports, per end-to-end metric, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median`` next to the bound ``BENCHMARK.json`` fixes; then
``--traced`` traced runs, whose ``traced.op_cost`` against the untraced
median is the tracing overhead.  With ``--out`` the figures are written
as JSON, the evidence the bounds were set from; ``--runs 0`` keeps the
untraced figures already in that file and adds traced ones.  Runs are
sequential: one benchmark at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        check=True,
        text=True,
        timeout=900,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    print(f"{workload} seed={seed} trace={trace} wall={result['wall_s']:.1f}s "
          f"correct={result['correct']} "
          f"failed={result['failed']}/{result['attempted']}", flush=True)
    return result


def summarise(values: list) -> dict:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else float("inf"),
        "values": values,
    }


def is_steady(name: str, stats: dict) -> bool:
    """Spread below a third of the bound (set-up time is exempt)."""
    return name == "setup_s" or stats["spread"] < stats["bound"] / 3


def untraced(workload: str, args, config: dict) -> dict:
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    results = [
        run_once(workload, seed, config["run_seconds"], 0)
        for seed in range(1, args.runs + 1)
    ]
    metrics = {}
    for name, bound in bounds.items():
        stats = summarise([r["metrics"][name]["value"] for r in results])
        stats["bound"] = bound
        metrics[name] = stats
        print(f"  {name:<12} median={stats['median']:.6g} "
              f"q1={stats['q1']:.6g} q3={stats['q3']:.6g} "
              f"spread={stats['spread']:.4f} bound={bound} "
              f"{'ok' if is_steady(name, stats) else 'WIDE'}", flush=True)
    return {
        "metrics": metrics,
        "correct": all(r["correct"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "max_wall_s": max(r["wall_s"] for r in results),
    }


def traced(workload: str, args, config: dict, entry: dict) -> dict:
    results = [
        run_once(workload, seed, config["run_seconds"], 1)
        for seed in range(1, args.traced + 1)
    ]
    layers = {
        name: statistics.median(r["metrics"][name]["value"] for r in results)
        for name in results[0]["metrics"]
    }
    base = entry["metrics"]["op_cost"]["median"]
    overhead = layers["traced.op_cost"] / base - 1 if base else None
    print(f"  tracing overhead on op_cost: {overhead:+.3f}", flush=True)
    return {
        "runs": len(results),
        "correct": all(r["correct"] for r in results),
        "max_wall_s": max(r["wall_s"] for r in results),
        "tracing_overhead": overhead,
        "per_layer_median": layers,
    }


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", type=int, default=2)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in config["workloads"]]
    report = {"workloads": {}}
    if args.runs == 0 and args.out and args.out.exists():
        report = json.loads(args.out.read_text())
    report.update(
        host=f"{platform.machine()}, Python {platform.python_version()}, "
             f"{len(os.sched_getaffinity(0))} CPUs",
        run_seconds=config["run_seconds"],
    )
    if args.runs:
        report["runs"] = args.runs
    steady = True
    for workload in workloads:
        entry = report["workloads"].get(workload)
        if args.runs:
            entry = report["workloads"][workload] = untraced(
                workload, args, config
            )
        steady &= all(
            is_steady(name, stats) for name, stats in entry["metrics"].items()
        )
        if args.traced:
            entry["traced"] = traced(workload, args, config, entry)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
