"""Per-layer metrics from a traced run's spans.

Every metric is reported on every workload; a layer a workload never
enters reads 0.  Conventions:

- *per operation* figures group spans by correlation id: the
  operation (round, pass, replay) on closed-loop workloads, the
  distinct submitted spec on ``service-openloop``; the metric is the
  median over groups;
- *counts* are those of the first operation (``op-0``), which repeat
  exactly for a given ``--seed``; on ``service-openloop``, whose
  schedule is fixed, they are totals over the run;
- ``<layer>.self_s`` is self time in the benchmark process, where the
  self times plus ``untraced_s`` add up to ``trace.wall_s``;
  ``<layer>.worker_self_s`` is self time in pool and service worker
  processes, which runs in parallel with it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Tuple

from perfbench.common import Context, median
from perfbench.trace import LAYERS, Span, self_times, union_seconds

EXPERIMENT_IDS = ("E1", "E2", "E3", "E4", "E5", "E6", "E7")

#: (name, unit, better) for every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("sim.run_s", "s", "lower"),
    ("sim.jobs", "count", "higher"),
    ("sim.us_per_job", "us", "lower"),
    ("scheduler.select_calls", "count", "lower"),
    ("scheduler.select_s", "s", "lower"),
    ("scenarios.build_s", "s", "lower"),
    *[(f"experiments.{eid}_s", "s", "lower") for eid in EXPERIMENT_IDS],
    ("experiments.claims_failed", "count", "lower"),
    ("campaigns.e3_workflow_s", "s", "lower"),
    ("campaigns.overhead_s", "s", "lower"),
    ("sweep.point_p50_s", "s", "lower"),
    ("sweep.parallel_efficiency", "ratio", "higher"),
    ("sweep.engine_overhead_s", "s", "lower"),
    ("store.commits", "count", "lower"),
    ("store.commit_p50_s", "s", "lower"),
    ("store.lookups", "count", "lower"),
    ("store.hits", "count", "higher"),
    ("store.hit_ratio", "ratio", "higher"),
    ("store.lookup_p50_s", "s", "lower"),
    ("store.finalize_s", "s", "lower"),
    ("store.column_read_s", "s", "lower"),
    ("store.unpickle", "count", "lower"),
    ("store.json_decode", "count", "lower"),
    ("service.http_post_p50_s", "s", "lower"),
    ("service.http_status_p50_s", "s", "lower"),
    ("service.http_results_p50_s", "s", "lower"),
    ("service.queue_wait_p50_s", "s", "lower"),
    ("service.execute_p50_s", "s", "lower"),
    ("service.http_errors", "count", "lower"),
    ("service.generator_lag_max_s", "s", "lower"),
    ("cli.cold_start_s", "s", "lower"),
    *[(f"{layer}.self_s", "s", "lower") for layer in LAYERS],
    *[(f"{layer}.worker_self_s", "s", "lower") for layer in LAYERS],
    ("untraced_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.records", "count", "lower"),
    ("trace.overhead_est_s", "s", "lower"),
    ("traced.op_p50_s", "s", "lower"),
    ("traced.op_cost", "ref", "lower"),
]

UNITS = {name: unit for name, unit, _better in PER_LAYER}


def compute(
    ctx: Context,
    spans: List[Span],
    hot: Dict[Tuple[int, str, Any], List[float]],
    counts: Dict[Tuple[str, Any], int],
    main_pid: int,
    costs: Tuple[float, float],
    cold_start_s: float,
) -> Dict[str, float]:
    t0, t1 = ctx.window
    spans = [span for span in spans if t0 <= span[6] <= t1]
    by_name: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        by_name[span[3]].append(span)

    def durations(name: str) -> List[float]:
        return [span[7] - span[6] for span in by_name[name]]

    def per_group(values: Dict[Any, float]) -> float:
        return median(list(values.values()))

    def first_or_total(table: Dict[Any, float]) -> float:
        if "op-0" in table:
            return table["op-0"]
        return sum(table.values())

    def grouped_spans(name: str) -> Dict[Any, float]:
        groups: Dict[Any, float] = defaultdict(float)
        for span in by_name[name]:
            if span[4] is not None:
                groups[span[4]] += span[7] - span[6]
        return groups

    def grouped_counts(name: str) -> Dict[Any, float]:
        groups: Dict[Any, float] = defaultdict(float)
        for (counted, trace_id), amount in counts.items():
            if counted == name:
                groups[trace_id] += amount
        return groups

    def grouped_hot(name: str, index: int) -> Dict[Any, float]:
        groups: Dict[Any, float] = defaultdict(float)
        for (_pid, hot_name, trace_id), entry in hot.items():
            if hot_name == name:
                groups[trace_id] += entry[index]
        return groups

    def span_count(name: str) -> Dict[Any, float]:
        groups: Dict[Any, float] = defaultdict(float)
        for span in by_name[name]:
            groups[span[4]] += 1
        return groups

    m: Dict[str, float] = {}
    sim_total = sum(durations("sim.run"))
    jobs = grouped_counts("sim.jobs")
    m["sim.run_s"] = per_group(grouped_spans("sim.run"))
    m["sim.jobs"] = first_or_total(jobs)
    total_jobs = sum(jobs.values())
    m["sim.us_per_job"] = 1e6 * sim_total / total_jobs if total_jobs else 0.0
    m["scheduler.select_calls"] = first_or_total(grouped_hot("scheduler.select", 0))
    m["scheduler.select_s"] = per_group(grouped_hot("scheduler.select", 1))

    # Build plus install_* per owner: the point (or other caller) span
    # the outermost build/install calls sit under.
    build: Dict[Tuple[int, int], float] = defaultdict(float)
    scenario_seqs = {
        (span[0], span[1])
        for name in ("scenarios.build", "scenarios.install")
        for span in by_name[name]
    }
    for name in ("scenarios.build", "scenarios.install"):
        for span in by_name[name]:
            if (span[0], span[2]) not in scenario_seqs:
                build[(span[0], span[2])] += span[7] - span[6]
    m["scenarios.build_s"] = median(list(build.values()))

    for eid in EXPERIMENT_IDS:
        m[f"experiments.{eid}_s"] = median(durations(f"experiments.{eid}"))
    m["experiments.claims_failed"] = float(ctx.extra.get("claims_failed", 0))

    steps = by_name["campaigns.step"]
    overheads = []
    for run in by_name["campaigns.run"]:
        inside = [
            (max(s[6], run[6]), min(s[7], run[7]))
            for s in steps
            if s[4] == run[4] and s[7] > run[6] and s[6] < run[7]
        ]
        overheads.append((run[7] - run[6]) - union_seconds(inside))
    m["campaigns.e3_workflow_s"] = median(durations("campaigns.run"))
    m["campaigns.overhead_s"] = median(overheads)

    points = by_name["scenarios.point"]
    efficiency, engine = [], []
    for run in by_name["sweep.run"]:
        inside = [
            p[7] - p[6] for p in points
            if p[4] == run[4] and run[6] <= p[6] and p[7] <= run[7]
        ]
        if not inside:
            continue
        wall = run[7] - run[6]
        workers = run[5] or 1
        efficiency.append(sum(inside) / (wall * workers))
        engine.append(wall - sum(inside) / workers)
    m["sweep.point_p50_s"] = median([p[7] - p[6] for p in points])
    m["sweep.parallel_efficiency"] = median(efficiency)
    m["sweep.engine_overhead_s"] = median(engine)

    m["store.commits"] = first_or_total(span_count("store.commit"))
    m["store.commit_p50_s"] = median(durations("store.commit"))
    lookups = sum(grouped_counts("store.lookups").values())
    hits = sum(grouped_counts("store.hits").values())
    m["store.lookups"] = first_or_total(grouped_counts("store.lookups"))
    m["store.hits"] = first_or_total(grouped_counts("store.hits"))
    m["store.hit_ratio"] = hits / lookups if lookups else 0.0
    m["store.lookup_p50_s"] = median(durations("store.lookup"))
    m["store.finalize_s"] = median(durations("store.finalize"))
    m["store.column_read_s"] = median(durations("store.column_read"))
    m["store.unpickle"] = first_or_total(grouped_counts("store.unpickle"))
    m["store.json_decode"] = first_or_total(grouped_counts("store.json_decode"))

    m["service.http_post_p50_s"] = median(durations("service.post"))
    m["service.http_status_p50_s"] = median(durations("service.status"))
    m["service.http_results_p50_s"] = median(durations("service.results"))
    m["service.queue_wait_p50_s"] = median(ctx.extra.get("queue_wait_s", []))
    m["service.execute_p50_s"] = median(ctx.extra.get("execute_s", []))
    m["service.http_errors"] = float(ctx.extra.get("http_errors", 0))
    m["service.generator_lag_max_s"] = float(ctx.extra.get("lag_max_s", 0.0))
    m["cli.cold_start_s"] = cold_start_s

    main_self, worker_self = self_times(spans, hot, main_pid)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = main_self.get(layer, 0.0)
        m[f"{layer}.worker_self_s"] = worker_self.get(layer, 0.0)
    wall = t1 - t0
    covered = union_seconds(
        (span[6], span[7]) for span in spans
        if span[0] == main_pid and span[2] == 0
    )
    m["untraced_s"] = wall - covered
    m["trace.wall_s"] = wall
    hot_calls = sum(entry[0] for entry in hot.values())
    m["trace.records"] = float(len(spans) + hot_calls)
    span_cost, hot_cost = costs
    m["trace.overhead_est_s"] = len(spans) * span_cost + hot_calls * hot_cost
    m["traced.op_p50_s"] = ctx.extra["op_p50_s"]
    m["traced.op_cost"] = ctx.extra["op_cost"]
    return {name: float(m[name]) for name, _unit, _better in PER_LAYER}

