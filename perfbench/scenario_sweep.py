"""``scenario-sweep`` (cold) and ``scenario-replay`` (warm) workloads.

Both drive the same store-backed scenario grid, the way a user runs
one: ``run_sweep(run_scenario_point, workers=2,
cache=store.sweep_cache(), journal=store.run_journal(...))``, then
``finalize_sweep`` and ``read_column``.  The grid is three sweeps:
``large-1k`` over ``workload.background_rho`` (1024 nodes under EASY
backfill, most of the work), ``failure-storm`` and ``bursty-campaign``
over ``topology.classical_nodes``, with replications, at fixed seeds.

- ``scenario-sweep``: one operation is the whole grid, cold, in a
  fresh store: simulation plus the sweep pool plus store commits.
- ``scenario-replay``: set-up fills one store with the grid; one
  operation re-requests the whole grid from it.  No point simulates, so
  only the store's read path works.

Output checks: every cold pass produces the same values
(``canonical_bytes``); a warm replay of a cold store returns them
byte-identically; sampled points recomputed in this process by
``run_scenario_point`` equal the stored values.
"""

from __future__ import annotations

import random
import shutil
import time
from typing import Any, List, Optional, Tuple

from perfbench.common import WORKERS, Context, median

#: (preset, axis path, axis values, replications): 16 + 6 + 6 points.
GRID = (
    ("large-1k", "workload.background_rho", [0.6, 0.7, 0.8, 0.9], 4),
    ("failure-storm", "topology.classical_nodes", [16, 32, 48], 2),
    ("bursty-campaign", "topology.classical_nodes", [16, 32, 48], 2),
)
#: The grid's seeds are fixed, so every run simulates the same work and
#: runs stay comparable; ``--seed`` orders the three sweeps and picks
#: the points the output check recomputes.
GRID_SEED = 100
#: Columns read back after every pass, as a results consumer would.
READ_METRICS = ("finished_jobs", "utilisation_classical", "queue_depth")
#: Points recomputed in-process for the output check.
SAMPLED_POINTS = 3


class _Grid:
    """The grid's specs and the calls that run one pass over it."""

    def __init__(self, seed: int) -> None:
        from repro.experiments.sweep import runner_name
        from repro.scenarios import sweeps

        self.sweeps = sweeps
        self.specs = [
            sweeps.scenario_sweep_spec(
                preset,
                {path: values},
                base_seed=GRID_SEED + index,
                replications=replications,
            )
            for index, (preset, path, values, replications) in enumerate(GRID)
        ]
        random.Random(seed).shuffle(self.specs)
        self.runner_name = runner_name(sweeps.run_scenario_point)
        self.points = sum(len(spec) for spec in self.specs)

    def open_store(self, directory: Any) -> Any:
        from repro.store import ResultStore

        return ResultStore(directory).open()

    def run(
        self, store: Any, probe: Any = None, start: Optional[float] = None
    ) -> Tuple[List[Any], int, List[Any], List[Tuple[float, float]]]:
        """One pass: per-spec SweepResults, cache hits, columns read, and
        each spec's (start, seconds).  With ``probe``, a host-probe
        sample precedes every spec after the first; the first spec's
        segment starts at ``start`` when given (the caller's store open).
        """
        from repro.experiments.sweep import run_sweep

        results = []
        hits = 0
        columns = []
        segments = []
        for index, spec in enumerate(self.specs):
            if probe is not None and index:
                probe.sample()
            began = start if start is not None and not index else (
                time.perf_counter()
            )
            result = run_sweep(
                spec,
                self.sweeps.run_scenario_point,
                workers=WORKERS,
                cache=store.sweep_cache(),
                journal=store.run_journal(spec.experiment_id, self.runner_name),
            )
            store.finalize_sweep(spec, self.runner_name)
            for metric in READ_METRICS:
                columns.append(
                    store.read_column(spec, self.runner_name, metric).tolist()
                )
            segments.append((began, time.perf_counter() - began))
            results.append(result)
            hits += result.cache_hits
        return results, hits, columns, segments

    def blob(self, results: List[Any]) -> bytes:
        from repro.experiments.sweep import canonical_bytes

        return canonical_bytes([result.values for result in results])

    def check_sample(self, ctx: Context, results: List[Any]) -> None:
        """Recompute sampled points in this process; compare to stored."""
        from repro.experiments.sweep import canonical_bytes

        rng = random.Random(ctx.seed)
        pairs = [
            (point, value)
            for result in results
            for point, value in zip(result.points, result.values)
        ]
        for point, stored in rng.sample(pairs, SAMPLED_POINTS):
            ctx.attempted += 1
            fresh = self.sweeps.run_scenario_point(dict(point.params), point.seed)
            if canonical_bytes(fresh) != canonical_bytes(stored):
                ctx.failed += 1
                ctx.problem(f"point {point.key()} recomputed differently")


def _summarise(
    ctx: Context, passes: List[List[Tuple[float, float]]], side: int
) -> None:
    """Median operation time and cost; an operation's cost sums its
    segments' costs, each paired with the ``side`` probe samples on
    either side of it."""
    ctx.latencies = [sum(t for _s, t in segments) for segments in passes]
    ctx.costs = [
        sum(t / ctx.probe.around(s, s + t, side) for s, t in segments)
        for segments in passes
    ]
    ctx.extra["op_p50_s"] = median(ctx.latencies)
    ctx.extra["op_cost"] = median(ctx.costs)


class ScenarioSweep:
    name = "scenario-sweep"

    def prepare(self, ctx: Context) -> None:
        self.grid = _Grid(ctx.seed)
        self.blobs: List[bytes] = []
        self.last_store = None

    def operate(self, ctx: Context, deadline: float) -> None:
        index = 0
        passes = []
        while time.perf_counter() < deadline:
            if ctx.tracer:
                ctx.tracer.trace_id = ctx.op_id(index)
            directory = ctx.work / "sweep" / str(index)
            ctx.attempted += 1
            ctx.probe.sample()
            start = time.perf_counter()
            store = self.grid.open_store(directory)
            results, hits, _columns, segments = self.grid.run(
                store, ctx.probe, start
            )
            passes.append(segments)
            failures = sum(result.failure_count for result in results)
            self.blobs.append(self.grid.blob(results))
            if failures or hits:
                ctx.failed += 1
                ctx.problem(f"pass {index}: {failures} failed points, "
                            f"{hits} cache hits in a cold store")
            if self.last_store is not None:
                self.last_store[0].close()
                shutil.rmtree(self.last_store[1], ignore_errors=True)
            self.last_store = (store, directory, results)
            index += 1
        ctx.probe.sample()
        if ctx.tracer:
            ctx.tracer.trace_id = None
        _summarise(ctx, passes, 2)

    def check(self, ctx: Context) -> None:
        if len(set(self.blobs)) > 1:
            ctx.failed += 1
            ctx.problem("cold passes over the same grid gave different values")
        store, directory, cold = self.last_store
        ctx.attempted += 1
        warm, hits, _columns, _segments = self.grid.run(store)
        if hits != self.grid.points or self.grid.blob(warm) != self.grid.blob(cold):
            ctx.failed += 1
            ctx.problem("warm replay differs from the cold pass")
        self.grid.check_sample(ctx, cold)
        store.close()
        shutil.rmtree(directory, ignore_errors=True)

    def report(self, ctx: Context) -> List[Tuple[str, Any, str, str]]:
        return [
            ("sweep_points_per_s", self.grid.points / ctx.extra["op_p50_s"],
             "1/s", f"at the median of n={len(ctx.latencies)} cold passes x "
             f"{self.grid.points} points, {WORKERS} workers"),
            ("sweep_pass_s", ctx.extra["op_p50_s"], "s",
             f"median of n={len(ctx.latencies)} passes"),
        ]

    def teardown(self, ctx: Context) -> None:
        pass


class ScenarioReplay:
    name = "scenario-replay"

    def prepare(self, ctx: Context) -> None:
        self.grid = _Grid(ctx.seed)
        self.directory = ctx.work / "replay"
        self.store = self.grid.open_store(self.directory)
        self.cold, _hits, self.columns, _segments = self.grid.run(self.store)
        self.cold_blob = self.grid.blob(self.cold)

    def operate(self, ctx: Context, deadline: float) -> None:
        index = 0
        mismatches = 0
        passes = []
        while time.perf_counter() < deadline:
            if ctx.tracer:
                ctx.tracer.trace_id = ctx.op_id(index)
            ctx.attempted += 1
            ctx.probe.sample()
            start = time.perf_counter()
            warm, hits, columns, _segments = self.grid.run(self.store)
            passes.append([(start, time.perf_counter() - start)])
            if (hits != self.grid.points or columns != self.columns
                    or self.grid.blob(warm) != self.cold_blob):
                ctx.failed += 1
                mismatches += 1
            index += 1
        ctx.probe.sample()
        if ctx.tracer:
            ctx.tracer.trace_id = None
        _summarise(ctx, passes, 1)
        if mismatches:
            ctx.problem(f"{mismatches} warm replays differ from the cold pass")

    def check(self, ctx: Context) -> None:
        self.grid.check_sample(ctx, self.cold)

    def report(self, ctx: Context) -> List[Tuple[str, Any, str, str]]:
        return [
            ("replay_points_per_s", self.grid.points / ctx.extra["op_p50_s"],
             "1/s", f"at the median of n={len(ctx.latencies)} warm replays x "
             f"{self.grid.points} points"),
            ("replay_s", ctx.extra["op_p50_s"], "s",
             f"median of n={len(ctx.latencies)} replays"),
        ]

    def teardown(self, ctx: Context) -> None:
        self.store.close()
        shutil.rmtree(self.directory, ignore_errors=True)
