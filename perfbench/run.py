"""The repository benchmark: one command per workload.

    python3 perfbench/run.py --workload paper-repro --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root.  Builds nothing: the program is the pure
Python package under ``src/``.  Prints a human-readable report, then,
as the last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  Everything it writes goes
under ``.perfbench_work/`` in the repository root and is removed on
exit.

End-to-end metrics (the same three on every workload; what an
operation is depends on the workload, see ``perfbench/README.md``):

- ``setup_s``: start of the process until the first timed operation
  can be issued (imports, store creation; for ``service-openloop`` the
  ``serve`` bind, two workers and one warm-up submission reaching
  ``done``; for ``scenario-replay`` filling the store).  Median of
  three set-ups: this process's and two fresh interpreters'.
- ``peak_rss_mb``: the larger of this process's and its children's
  peak resident set.
- ``op_cost``: median cost of one operation in host-probe units: each
  operation's latency divided by the time of a fixed pure-Python
  kernel sampled next to it (:class:`perfbench.common.HostProbe`).
  Raw seconds on a shared host swing by up to 2x with other tenants'
  load for minutes at a time; the ratio cancels the host's current
  speed, so runs of two commits compare.  The report above the JSON
  line prints the raw latencies and rates by name.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = (
    "paper-repro",
    "scenario-sweep",
    "scenario-replay",
    "service-openloop",
)
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_cost", "ref"),
)
#: Set-up samples taken in fresh interpreters, besides this process's.
SETUP_PROBES = 2
#: Cache-key component pinned for every run, so a git checkout and a
#: plain copy of the same code store and read identical keys.
CODE_VERSION = "perfbench"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="only set up and tear down; print the set-up seconds",
    )
    return parser.parse_args(argv)


def _isolate(work: Path) -> None:
    """Pin the environment the program and its children see."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_SWEEP_CODE_VERSION"] = CODE_VERSION
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _workload(name):
    if name == "paper-repro":
        from perfbench.paper_repro import PaperRepro

        return PaperRepro()
    if name == "scenario-sweep":
        from perfbench.scenario_sweep import ScenarioSweep

        return ScenarioSweep()
    if name == "scenario-replay":
        from perfbench.scenario_sweep import ScenarioReplay

        return ScenarioReplay()
    from perfbench.service_openloop import ServiceOpenLoop

    return ServiceOpenLoop()


def _setup_probe(args) -> float:
    """Set-up seconds of one fresh interpreter doing this workload."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--setup-probe"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        check=True,
        text=True,
        timeout=120,
    ).stdout
    return float(json.loads(out.strip().splitlines()[-1])["setup_s"])


def _run(args, work: Path):
    from perfbench.common import Context, median, peak_rss_mb

    ctx = Context(args.workload, args.seed, args.seconds, work)
    if args.trace:
        from perfbench.trace import Tracer, install

        ctx.trace_dir = work / "spans"
        ctx.trace_dir.mkdir()
        ctx.tracer = Tracer(ctx.trace_dir)
        install(ctx.tracer)
    workload = _workload(args.workload)
    try:
        workload.prepare(ctx)
        setup = time.perf_counter() - _START
        if args.setup_probe:
            return {"setup_s": setup}
        if ctx.tracer:
            ctx.tracer.clear()
        start = time.perf_counter()
        workload.operate(ctx, start + args.seconds)
        ctx.window = (start, time.perf_counter())
        main_snapshot = ctx.tracer.snapshot() if ctx.tracer else None
        workload.check(ctx)
    finally:
        workload.teardown(ctx)
    rss = peak_rss_mb()
    if args.trace:
        metrics = _layer_metrics(ctx, main_snapshot)
    else:
        setups = [setup] + [_setup_probe(args) for _ in range(SETUP_PROBES)]
        ctx.extra["setup_samples"] = setups
        metrics = {
            "setup_s": median(setups),
            "peak_rss_mb": rss,
            "op_cost": ctx.extra["op_cost"],
        }
    return ctx, workload, metrics


def _layer_metrics(ctx, main_snapshot):
    from perfbench import layers
    from perfbench.common import cold_start_seconds
    from perfbench.trace import calibrate, load_records

    spans, hot, counts = load_records(
        main_snapshot, ctx.trace_dir, *ctx.window
    )
    return layers.compute(
        ctx,
        spans,
        hot,
        counts,
        main_pid=os.getpid(),
        costs=calibrate(),
        cold_start_s=cold_start_seconds(),
    )


def _print_report(args, ctx, workload, metrics) -> None:
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    rows = [(name, value, unit, note)
            for name, value, unit, note in workload.report(ctx)]
    if args.trace:
        from perfbench.layers import UNITS

        rows += [(name, value, UNITS[name], "") for name, value in metrics.items()]
        main_self = sum(
            value for name, value in metrics.items()
            if name.endswith(".self_s")
        )
        rows.append(("self_s sum + untraced_s", main_self + metrics["untraced_s"],
                     "s", f"vs trace.wall_s {metrics['trace.wall_s']:.4f}"))
    else:
        units = dict(END_TO_END)
        samples = ctx.extra["setup_samples"]
        notes = {
            "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in samples),
            "op_cost": f"n={len(ctx.latencies)} operations",
        }
        rows += [(name, value, units[name], notes.get(name, ""))
                 for name, value in metrics.items()]
    width = max(len(row[0]) for row in rows)
    for name, value, unit, note in rows:
        print(f"  {name:<{width}}  {value:>12.6g} {unit:<6} {note}")
    print(f"  attempted={ctx.attempted} failed={ctx.failed} "
          f"correct={str(not ctx.problems).lower()}")
    for problem in ctx.problems:
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        _isolate(work)
        outcome = _run(args, work)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            work.parent.rmdir()
    if args.setup_probe:
        print(json.dumps(outcome))
        return 0
    ctx, workload, metrics = outcome
    _print_report(args, ctx, workload, metrics)
    units = dict(END_TO_END)
    if args.trace:
        from perfbench.layers import UNITS as units  # noqa: N811
    print(json.dumps({
        "correct": not ctx.problems,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
