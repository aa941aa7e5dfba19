"""Registered campaign steps and the context they execute under.

A *step* is a named, importable function ``step(ctx) -> value`` that a
campaign stage binds to by string.  The registry keeps campaign specs
declarative (a TOML file can only name steps, never embed code) and
keeps stages picklable — pool backends ship ``(step name, context)``
across process boundaries and re-resolve the callable on the far side.

Built-in steps cover the repo's experiment vocabulary:

``scenario.run``
    Drive one scenario preset (plus dotted-path overrides) and return
    its flat metrics dict.
``scenario.sweep``
    Run a full scenario parameter grid through the PR-2/PR-6 sweep
    engine — with its own point-level cache and journal under the
    campaign's state directory, so resuming a half-done sweep stage
    re-enters it at point granularity.
``workload.summary``
    Summarise a preset's facility shape (pure, no simulation).
``sweep.aggregate``
    Reduce an upstream sweep stage's rows to per-metric statistics.
``strategy.compare``
    The E3 core: one hybrid app under co-scheduling vs workflow
    execution (the body E3's regime points run), returning
    per-strategy turnaround/efficiency metrics.
``report.render``
    Fold every upstream value into a deterministic campaign report.

Step values must be picklable and JSON-canonicalisable — they are
persisted per stage and digested for the byte-identity contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ConfigurationError

#: Step signature: one positional :class:`StageContext`.
StepFn = Callable[["StageContext"], Any]


@dataclass
class StageContext:
    """Everything a step sees when its stage executes.

    ``upstream`` maps each dependency stage's name to its value, in
    the spec's ``after`` order.  ``seed`` is the stage's derived seed
    (a pure function of campaign seed + stage name).  ``state_dir`` is
    a campaign-private directory the step may use for its own durable
    state — the sweep step keeps its point cache and journal there.
    ``workers`` is this stage's share of the campaign's worker budget:
    1 on the ``process`` backend (the stage owns the pool worker it
    runs in), the whole budget on ``serial``.
    """

    stage: str
    params: Dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    upstream: Dict[str, Any] = field(default_factory=dict)
    workers: int = 1
    state_dir: Optional[Path] = None
    code_version: str = ""

    def param(self, key: str, default: Any = None) -> Any:
        return self.params.get(key, default)

    def require(self, key: str) -> Any:
        if key not in self.params:
            raise ConfigurationError(
                f"stage {self.stage!r}: required param {key!r} missing"
            )
        return self.params[key]

    def sole_upstream(self) -> Any:
        """The single dependency's value (errors if not exactly one)."""
        if len(self.upstream) != 1:
            raise ConfigurationError(
                f"stage {self.stage!r} expects exactly one dependency, "
                f"has {sorted(self.upstream)}"
            )
        return next(iter(self.upstream.values()))


class StepRegistry:
    """Name -> step function, with helpful unknown-name errors.

    >>> registry = StepRegistry()
    >>> @registry.register("demo.double")
    ... def _double(ctx):
    ...     return 2 * ctx.param("x", 0)
    >>> registry.get("demo.double")(StageContext(stage="s",
    ...                                          params={"x": 21}))
    42
    """

    def __init__(self) -> None:
        self._steps: Dict[str, StepFn] = {}

    def register(self, name: str) -> Callable[[StepFn], StepFn]:
        def decorator(fn: StepFn) -> StepFn:
            if name in self._steps:
                raise ConfigurationError(
                    f"step {name!r} is already registered"
                )
            self._steps[name] = fn
            return fn

        return decorator

    def get(self, name: str) -> StepFn:
        try:
            return self._steps[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown step {name!r} (registered: {self.names()})"
            ) from None

    def names(self) -> List[str]:
        return sorted(self._steps)

    def __contains__(self, name: str) -> bool:
        return name in self._steps


#: The process-wide registry campaign specs resolve against.
STEPS = StepRegistry()


def register_step(name: str) -> Callable[[StepFn], StepFn]:
    """Register a step in the global registry (decorator)."""
    return STEPS.register(name)


def resolve_step(name: str) -> StepFn:
    """Look ``name`` up in the global registry."""
    return STEPS.get(name)


# -- built-in steps ----------------------------------------------------------


@register_step("scenario.run")
def _scenario_run(ctx: StageContext) -> Dict[str, Any]:
    """Drive one scenario and return its flat metrics dict.

    Params: ``preset`` (or inline ``scenario`` dict), optional
    ``run_horizon``, plus any dotted-path overrides
    (``"topology.classical_nodes"``).  The stage seed drives the
    scenario unless ``params`` pins its own ``seed``.
    """
    from repro.scenarios.build import run_scenario
    from repro.scenarios.sweeps import HORIZON_KEY, point_scenario

    params = dict(ctx.params)
    seed = params.pop("seed", ctx.seed)
    horizon = params.get(HORIZON_KEY)
    spec = point_scenario(params)
    return run_scenario(spec, seed=seed, horizon=horizon)


@register_step("scenario.sweep")
def _scenario_sweep(ctx: StageContext) -> Dict[str, Any]:
    """Run a scenario grid; resumable at point granularity.

    Params: ``preset``, ``axes`` (dotted path -> list of values),
    optional ``replications``, ``run_horizon``, ``retries``,
    ``point_timeout_seconds``.  The sweep's cache and journal live in
    a result store at ``state_dir/sweeps/<stage>`` — its own store: the
    engine holds the writer lock on the campaign's — so a campaign
    resumed through a half-done sweep stage re-executes only the
    missing points.

    Returns ``{"rows": [{**params, **metrics}, ...], "ok": n,
    "failed": n}`` — plain data, safe to digest and pickle.
    """
    from repro.experiments.resilience import FailurePolicy
    from repro.experiments.sweep import runner_name
    from repro.scenarios.sweeps import (
        run_scenario_point,
        run_scenario_sweep,
        scenario_sweep_spec,
    )
    from repro.store import ResultStore

    axes = {
        str(key): list(values)
        for key, values in ctx.require("axes").items()
    }
    spec = scenario_sweep_spec(
        ctx.require("preset"),
        axes,
        experiment_id=ctx.param(
            "experiment_id", f"campaign:{ctx.stage}"
        ),
        base_seed=int(ctx.param("seed", ctx.seed)),
        replications=int(ctx.param("replications", 1)),
        run_horizon=ctx.param("run_horizon"),
    )
    store = cache = journal = None
    if ctx.state_dir is not None:
        store = ResultStore(
            Path(ctx.state_dir) / "sweeps" / ctx.stage,
            code_version=ctx.code_version,
        )
        cache = store.sweep_cache()
        journal = store.run_journal(
            spec.experiment_id, runner_name(run_scenario_point)
        )
    policy = FailurePolicy(
        max_attempts=int(ctx.param("retries", 0)) + 1,
        timeout_seconds=ctx.param("point_timeout_seconds"),
        on_error="collect",
    )
    try:
        result = run_scenario_sweep(
            spec,
            workers=ctx.workers,
            cache=cache,
            policy=policy,
            journal=journal,
            resume=True,
        )
    finally:
        if store is not None:
            store.close()
    rows = []
    for point, value in zip(result.points, result.values):
        row = dict(point.params)
        row.pop("scenario", None)
        if value is not None:
            row.update(value)
        rows.append(row)
    return {
        "rows": rows,
        "ok": result.ok_count,
        "failed": result.failure_count,
    }


@register_step("workload.summary")
def _workload_summary(ctx: StageContext) -> Dict[str, Any]:
    """Summarise a preset's facility shape (no simulation).

    Params: ``preset``.  Pure function of the scenario registry —
    useful as a cheap root stage that downstream reports embed.
    """
    from repro.scenarios.registry import get_scenario

    spec = get_scenario(ctx.require("preset"))
    fleet = spec.fleet
    return {
        "scenario": spec.name,
        "classical_nodes": spec.topology.classical_nodes,
        "technology": fleet.technology,
        "device_groups": len(fleet.devices),
        "background_rho": spec.workload.background_rho,
        "horizon": spec.workload.horizon,
        "seed": spec.seed,
    }


@register_step("sweep.aggregate")
def _sweep_aggregate(ctx: StageContext) -> Dict[str, Any]:
    """Reduce an upstream sweep's rows to per-metric statistics.

    Params: ``metrics`` (list of row keys; defaults to every numeric,
    non-axis key), optional ``source`` naming which upstream stage to
    read (defaults to the sole dependency).
    """
    source = ctx.param("source")
    sweep = (
        ctx.upstream[source]
        if source is not None
        else ctx.sole_upstream()
    )
    rows = sweep["rows"]
    wanted = ctx.param("metrics")
    stats: Dict[str, Dict[str, float]] = {}
    for row in rows:
        for key, value in row.items():
            if wanted is not None and key not in wanted:
                continue
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                continue
            entry = stats.setdefault(
                key, {"count": 0, "total": 0.0, "min": value, "max": value}
            )
            entry["count"] += 1
            entry["total"] += value
            entry["min"] = min(entry["min"], value)
            entry["max"] = max(entry["max"], value)
    aggregated = {
        key: {
            "count": entry["count"],
            "mean": entry["total"] / entry["count"],
            "min": entry["min"],
            "max": entry["max"],
        }
        for key, entry in sorted(stats.items())
    }
    return {
        "rows": len(rows),
        "ok": sweep.get("ok", len(rows)),
        "failed": sweep.get("failed", 0),
        "metrics": aggregated,
    }


@register_step("strategy.compare")
def _strategy_compare(ctx: StageContext) -> Dict[str, Any]:
    """E3 core: one app under co-scheduling vs workflow execution.

    Params: ``technology`` (default superconducting), ``iterations``,
    ``phase_seconds``, ``classical_nodes``, ``background_rho``,
    ``horizon``, ``submit_at``.
    """
    from repro.experiments.fig2_workflow import (
        compare_strategies,
        summarise,
    )
    from repro.quantum.technology import TECHNOLOGIES

    name = ctx.param("technology", "superconducting")
    try:
        technology = TECHNOLOGIES[name]
    except KeyError:
        raise ConfigurationError(
            f"stage {ctx.stage!r}: unknown technology {name!r} "
            f"(known: {sorted(TECHNOLOGIES)})"
        ) from None
    ideal, records = compare_strategies(
        technology,
        iterations=int(ctx.param("iterations", 5)),
        phase_seconds=float(ctx.param("phase_seconds", 300.0)),
        app_nodes=int(ctx.param("app_nodes", 8)),
        submit_at=float(ctx.param("submit_at", 0.0)),
        classical_nodes=int(ctx.param("classical_nodes", 32)),
        background_rho=float(ctx.param("background_rho", 0.0)),
        background_horizon=float(ctx.param("horizon", 0.0)),
        seed=int(ctx.param("seed", ctx.seed)),
        name=f"campaign-{ctx.stage}",
    )
    comparison: Dict[str, Any] = {
        strategy: summarise(record) for strategy, record in records.items()
    }
    comparison["ideal_makespan"] = ideal
    return comparison


@register_step("report.render")
def _report_render(ctx: StageContext) -> Dict[str, Any]:
    """Fold upstream stage values into one deterministic report.

    Params: optional ``title``.  The report carries each upstream
    value verbatim plus a short digest per stage, so the final
    campaign artefact is self-contained and byte-stable.
    """
    from repro.experiments.sweep import canonical_bytes

    import hashlib

    sections = {}
    for stage_name in sorted(ctx.upstream):
        value = ctx.upstream[stage_name]
        sections[stage_name] = {
            "digest": hashlib.sha256(
                canonical_bytes(value)
            ).hexdigest()[:16],
            "value": value,
        }
    return {
        "title": ctx.param("title", "campaign report"),
        "stages": sections,
    }
