"""E3 — Fig 2: loosely-coupled workflows vs exclusive co-scheduling.

The workflow strategy allocates resources per step, "as execution
requires the resources", so held-but-idle time disappears — but every
step re-enters the queue.  This experiment regenerates both sides of
that trade:

1. *Efficiency*: per-application held-vs-used efficiency under
   workflow execution approaches 1 on both partitions, while
   co-scheduling wastes the QPU side (superconducting case).
2. *Queue overhead*: with background load on the classical partition,
   workflow turnaround inflates by one queue wait per step; the
   overhead dominates exactly when steps are short relative to queue
   waits ("the queuing time ... may introduce a significant overhead
   when its duration outweighs the length of the computation").
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.experiments.common import campaign_scenario, standard_hybrid_app
from repro.experiments.harness import (
    ExperimentResult,
    attach_sweep_failures,
)
from repro.experiments.sweep import SweepSpec, run_cached_sweep
from repro.metrics.stats import mean
from repro.quantum.technology import SUPERCONDUCTING, QPUTechnology
from repro.scenarios.build import run_campaign
from repro.strategies.base import RunRecord
from repro.strategies.coschedule import CoScheduleStrategy
from repro.strategies.workflow import WorkflowStrategy


def compare_strategies(
    technology: QPUTechnology,
    iterations: int,
    phase_seconds: float,
    app_nodes: int = 8,
    submit_at: float = 0.0,
    **scenario: Any,
) -> Tuple[float, Dict[str, RunRecord]]:
    """The E3 comparison: one hybrid app as one exclusive hetjob and
    as a workflow of independently scheduled steps, each in a fresh
    copy of one :func:`campaign_scenario` (``scenario`` keywords), so
    both meet the same background.

    Returns the app's ideal makespan and each strategy's record by
    name.  E3's regime points and the ``strategy.compare`` campaign
    step both run this.
    """
    app = standard_hybrid_app(
        technology,
        iterations=iterations,
        classical_phase_seconds=phase_seconds,
        classical_nodes=app_nodes,
    )
    spec = campaign_scenario(technology, **scenario)
    records = {}
    for strategy in (CoScheduleStrategy(), WorkflowStrategy()):
        runs, _env = run_campaign(
            strategy, [app], scenario=spec, submit_times=[submit_at]
        )
        records[strategy.name] = runs[0]
    return app.ideal_makespan(technology), records


def summarise(record: RunRecord) -> Dict[str, Any]:
    """One strategy's side of a comparison, as plain scalars."""
    return {
        "turnaround": record.turnaround,
        "queued_pieces": len(record.queue_waits),
        "total_queue_wait": record.total_queue_wait,
        "classical_efficiency": record.classical_efficiency,
        "qpu_efficiency": record.qpu_efficiency,
    }


def _label(params: Dict[str, Any]) -> str:
    return f"{params['regime']}, {params['phase_s']:g} s phases"


def _run_point(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One E3 arm: a regime comparison or the contention campaign."""
    if params["regime"] == "contention":
        return _contention_point(params, seed)
    rho = params["rho"]
    label = _label(params)
    ideal, records = compare_strategies(
        SUPERCONDUCTING,
        iterations=params["iterations"],
        phase_seconds=params["phase_s"],
        # Under load, submit after a warmup so the app meets a
        # realistically busy queue rather than an empty cluster.
        submit_at=params["warmup"] if rho > 0 else 0.0,
        classical_nodes=32,
        background_rho=rho,
        background_horizon=params["horizon"],
        seed=seed,
        name=f"fig2-{label.replace(' ', '-').replace(',', '')}",
    )
    values: Dict[str, Any] = {"ideal": ideal}
    for name, record in records.items():
        summary = summarise(record)
        summary["mean_queue_wait"] = mean(record.queue_waits)
        values.update(
            (f"{name}_{key}", value) for key, value in summary.items()
        )
    return values


def _contention_point(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Tiny kernels pay disproportionate per-step queueing once several
    workflow tenants share the QPU: the paper's motivation for VQPUs."""
    apps = [
        standard_hybrid_app(
            SUPERCONDUCTING,
            iterations=params["iterations"],
            classical_phase_seconds=10.0,
            classical_nodes=2,
            shots=5000,
            name=f"tenant-{index}",
        )
        for index in range(params["tenants"])
    ]
    records, _env = run_campaign(
        WorkflowStrategy(),
        apps,
        scenario=campaign_scenario(
            SUPERCONDUCTING,
            classical_nodes=32,
            seed=seed,
            name="fig2-quantum-contention",
        ),
    )
    kernel_exec = [
        record.qpu_busy_seconds / max(len(record.quantum_access_waits), 1)
        for record in records
    ]
    # Per-step *job* queue waits on the quantum partition: each workflow
    # quantum step is its own job contending for the single qpu gres.
    waits = [wait for record in records for wait in record.queue_waits]
    return {"kernel_exec": mean(kernel_exec), "step_wait": mean(waits)}


def sweep_spec(
    seed: int = 0,
    iterations: int = 5,
    background_rho: float = 0.85,
    horizon: float = 6 * 3600.0,
    warmup: float = 3600.0,
) -> SweepSpec:
    """The (regime, phase length) arms plus the contention campaign."""
    saturated_rho = max(1.15, background_rho + 0.3)
    points = [
        {"regime": regime, "rho": rho, "phase_s": phase_s}
        for regime, rho, phase_s in (
            ("idle", 0.0, 300.0),
            ("loaded", background_rho, 300.0),
            ("loaded", background_rho, 30.0),
            ("saturated", saturated_rho, 300.0),
            ("saturated", saturated_rho, 30.0),
        )
    ] + [{"regime": "contention", "tenants": 10}]
    return SweepSpec(
        experiment_id="E3",
        explicit=points,
        constants={
            "iterations": iterations,
            "horizon": horizon,
            "warmup": warmup,
        },
        base_seed=seed,
        seed_mode="shared",
    )


def run(
    seed: int = 0,
    iterations: int = 5,
    background_rho: float = 0.85,
    horizon: float = 6 * 3600.0,
    warmup: float = 3600.0,
    **sweep_options: Any,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E3",
        title="Loosely-coupled workflow execution (Fig 2)",
        description=(
            "The same hybrid application run as one exclusive hetjob vs "
            "as a workflow of independently scheduled steps, idle and "
            "under background load.  Workflows hold only what they use "
            "but pay one queue wait per step."
        ),
        parameters={
            "iterations": iterations,
            "background_rho": background_rho,
            "seed": seed,
        },
    )
    sweep_result = run_cached_sweep(
        sweep_spec(
            seed=seed,
            iterations=iterations,
            background_rho=background_rho,
            horizon=horizon,
            warmup=warmup,
        ),
        _run_point,
        **sweep_options,
    )
    if attach_sweep_failures(result, sweep_result):
        return result
    *regimes, contention = zip(sweep_result.points, sweep_result.values)
    arms = {_label(point.params): values for point, values in regimes}
    rows = [
        [
            label,
            name,
            round(values[f"{name}_turnaround"] or 0.0, 1),
            round(values["ideal"], 1),
            round((values[f"{name}_turnaround"] or 0.0) - values["ideal"], 1),
            values[f"{name}_queued_pieces"],
            round(values[f"{name}_total_queue_wait"], 1),
            round(values[f"{name}_classical_efficiency"], 3),
            round(values[f"{name}_qpu_efficiency"], 3),
        ]
        for label, values in arms.items()
        for name in ("coschedule", "workflow")
    ]
    result.add_table(
        "Co-scheduling vs workflow (superconducting QPU)",
        [
            "scenario",
            "strategy",
            "turnaround_s",
            "ideal_s",
            "overhead_s",
            "queued pieces",
            "queue_wait_s",
            "classical_eff",
            "qpu_eff",
        ],
        rows,
    )

    idle = arms["idle, 300 s phases"]
    result.check(
        "workflow holds the QPU only while using it "
        "(qpu efficiency > 0.9 vs < 0.2 under co-scheduling)",
        idle["workflow_qpu_efficiency"] > 0.9
        and idle["coschedule_qpu_efficiency"] < 0.2,
        detail=(
            f"workflow {idle['workflow_qpu_efficiency']:.3f}, "
            f"coschedule {idle['coschedule_qpu_efficiency']:.3f}"
        ),
    )
    loaded = arms["loaded, 300 s phases"]
    result.check(
        "under load the workflow pays one queue wait per step "
        "(every step queued)",
        loaded["workflow_queued_pieces"] == 2 * iterations,
        detail=f"{loaded['workflow_queued_pieces']} queued pieces",
    )
    saturated = arms["saturated, 300 s phases"]
    result.check(
        "repeated queueing: under saturation the workflow's total queue "
        "wait exceeds the co-scheduled job's single wait",
        saturated["workflow_total_queue_wait"]
        > saturated["coschedule_total_queue_wait"],
        detail=(
            f"workflow {saturated['workflow_total_queue_wait']:.0f}s vs "
            f"coschedule {saturated['coschedule_total_queue_wait']:.0f}s"
        ),
    )
    step_wait = saturated["workflow_mean_queue_wait"]
    result.check(
        "queue time is significant relative to the computation: mean "
        "per-step wait at saturation is at least 30% of the 300 s step "
        "duration",
        step_wait > 0.3 * 300.0,
        detail=f"mean step wait {step_wait:.0f}s vs 300 s steps",
    )
    result.check(
        "below saturation, backfill shelters short steps (short-step "
        "queue waits stay below the long-step ones)",
        arms["loaded, 30 s phases"]["workflow_mean_queue_wait"]
        <= loaded["workflow_mean_queue_wait"],
    )

    point, values = contention
    tenants = point.params["tenants"]
    kernel_exec, contended_wait = values["kernel_exec"], values["step_wait"]
    result.add_table(
        f"Quantum-step queueing under contention ({tenants} workflow "
        "tenants, 1 superconducting QPU)",
        [
            "tenants",
            "mean kernel exec_s",
            "mean step queue wait_s",
            "wait / exec ratio",
        ],
        [
            [
                tenants,
                round(kernel_exec, 2),
                round(contended_wait, 2),
                round(contended_wait / max(kernel_exec, 1e-9), 1),
            ]
        ],
    )
    result.check(
        "with several tenants, the per-step queue wait dwarfs the "
        "seconds-scale kernel itself (wait/exec > 3)",
        contended_wait / max(kernel_exec, 1e-9) > 3.0,
        detail=(
            f"wait {contended_wait:.1f}s vs exec {kernel_exec:.1f}s"
        ),
    )
    wf_waits = loaded["workflow_mean_queue_wait"]
    result.check(
        "workflow queue waits are non-trivial under load",
        wf_waits > 0.0,
        detail=f"mean step wait {wf_waits:.1f}s",
    )
    return result
