"""E5 — Fig 4: malleable jobs (shrink/grow around quantum phases).

Two scenarios straight from the paper's Section 4 discussion:

1. *Single queue wait* — under a saturated classical partition, the
   malleable job queues once while the equivalent workflow re-queues at
   every step: the malleable turnaround wins and its queue-wait count
   is one.
2. *Resource return* — on a slow (neutral-atom) QPU, the malleable job
   releases almost all classical nodes during the >30 min quantum
   phases; held node-seconds collapse versus exclusive co-scheduling,
   while the retained minimal allocation restores the full node count
   in one reconfiguration ("faster resumption") instead of a fresh
   queue wait.

The scenario x strategy grid (non-rectangular: the workflow only
appears under the saturated queue) runs through the sweep engine.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.experiments.common import (
    campaign_scenario,
    run_campaign,
    standard_hybrid_app,
)
from repro.experiments.harness import (
    ExperimentResult,
    attach_sweep_failures,
)
from repro.experiments.sweep import (
    SweepSpec,
    run_cached_sweep,
)
from repro.metrics.stats import mean
from repro.quantum.technology import NEUTRAL_ATOM, SUPERCONDUCTING
from repro.strategies.coschedule import CoScheduleStrategy
from repro.strategies.malleability import MalleableStrategy
from repro.strategies.workflow import WorkflowStrategy


def _make_strategy(name: str, reconfiguration_cost: float):
    if name == "coschedule":
        return CoScheduleStrategy()
    if name == "workflow":
        return WorkflowStrategy()
    return MalleableStrategy(reconfiguration_cost=reconfiguration_cost)


def _run_point(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One (scenario, strategy) cell; returns the record's table fields."""
    strategy = _make_strategy(
        params["strategy"], params["reconfiguration_cost"]
    )
    if params["scenario"] == "saturated":
        app = standard_hybrid_app(
            SUPERCONDUCTING,
            iterations=params["iterations"],
            classical_phase_seconds=300.0,
            classical_nodes=8,
            min_classical_nodes=1,
        )
        records, env = run_campaign(
            strategy,
            [app],
            scenario=campaign_scenario(
                SUPERCONDUCTING,
                classical_nodes=32,
                background_rho=params["background_rho"],
                background_horizon=params["horizon"],
                seed=seed,
                name="fig4-saturated",
            ),
            submit_times=[params["warmup"]],
        )
    else:
        app = standard_hybrid_app(
            NEUTRAL_ATOM,
            iterations=2,
            classical_phase_seconds=300.0,
            classical_nodes=16,
            min_classical_nodes=1,
            shots=2000,
        )
        records, env = run_campaign(
            strategy,
            [app],
            scenario=campaign_scenario(
                NEUTRAL_ATOM,
                classical_nodes=32,
                seed=seed,
                name="fig4-neutral-atom",
            ),
        )
    del env
    record = records[0]
    return {
        "turnaround": record.turnaround or 0.0,
        "queue_entries": len(record.queue_waits),
        "total_queue_wait": record.total_queue_wait,
        "classical_efficiency": record.classical_efficiency,
        "classical_held_node_seconds": record.classical_held_node_seconds,
        "resizes": record.details.get("resizes", 0),
        "final_state": record.details.get("final_state"),
        "grow_waits_s": list(record.details.get("grow_waits_s", [])),
    }


def sweep_spec(
    seed: int = 0,
    iterations: int = 5,
    background_rho: float = 1.15,
    horizon: float = 8 * 3600.0,
    reconfiguration_cost: float = 5.0,
    warmup: float = 3600.0,
) -> SweepSpec:
    points = [
        {"scenario": "saturated", "strategy": name}
        for name in ("coschedule", "workflow", "malleable")
    ] + [
        {"scenario": "neutral_atom", "strategy": name}
        for name in ("coschedule", "malleable")
    ]
    return SweepSpec(
        experiment_id="E5",
        explicit=points,
        constants={
            "iterations": iterations,
            "background_rho": background_rho,
            "horizon": horizon,
            "reconfiguration_cost": reconfiguration_cost,
            "warmup": warmup,
        },
        base_seed=seed,
        seed_mode="shared",
    )


def run(
    seed: int = 0,
    iterations: int = 5,
    background_rho: float = 1.15,
    horizon: float = 8 * 3600.0,
    reconfiguration_cost: float = 5.0,
    warmup: float = 3600.0,
    **sweep_options: Any,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E5",
        title="Malleability: single job, elastic resources (Fig 4)",
        description=(
            "A malleable hybrid job shrinks its classical allocation to "
            "the minimum during quantum phases and grows back afterwards; "
            "it queues once, unlike a workflow, and returns nodes during "
            "long quantum phases, unlike exclusive co-scheduling."
        ),
        parameters={
            "iterations": iterations,
            "background_rho": background_rho,
            "reconfiguration_cost_s": reconfiguration_cost,
            "seed": seed,
        },
    )

    sweep_result = run_cached_sweep(
        sweep_spec(
            seed=seed,
            iterations=iterations,
            background_rho=background_rho,
            horizon=horizon,
            reconfiguration_cost=reconfiguration_cost,
            warmup=warmup,
        ),
        _run_point,
        **sweep_options,
    )
    if attach_sweep_failures(result, sweep_result):
        return result
    rows: List[List[Any]] = []
    rows2: List[List[Any]] = []
    records_by_strategy: Dict[str, Dict[str, Any]] = {}
    na_records: Dict[str, Dict[str, Any]] = {}
    for point, metrics in zip(sweep_result.points, sweep_result.values):
        name = point.params["strategy"]
        if point.params["scenario"] == "saturated":
            records_by_strategy[name] = metrics
            rows.append(
                [
                    name,
                    round(metrics["turnaround"], 1),
                    metrics["queue_entries"],
                    round(metrics["total_queue_wait"], 1),
                    round(metrics["classical_efficiency"], 3),
                    metrics["resizes"],
                    metrics["final_state"],
                ]
            )
        else:
            na_records[name] = metrics
            grow_waits = metrics["grow_waits_s"]
            rows2.append(
                [
                    name,
                    round(metrics["turnaround"], 1),
                    round(metrics["classical_held_node_seconds"], 1),
                    round(metrics["classical_efficiency"], 3),
                    round(mean(grow_waits), 2) if grow_waits else 0.0,
                    metrics["final_state"],
                ]
            )

    # -- Scenario 1: saturated classical partition, short phases ---------------
    result.add_table(
        "Saturated classical partition (rho=%.2f), 300 s phases, "
        "superconducting QPU" % background_rho,
        [
            "strategy",
            "turnaround_s",
            "queue entries",
            "queue_wait_s",
            "classical_eff",
            "resizes",
            "state",
        ],
        rows,
    )

    malleable = records_by_strategy["malleable"]
    workflow = records_by_strategy["workflow"]
    result.check(
        "the malleable job queues exactly once",
        malleable["queue_entries"] == 1,
        detail=f"{malleable['queue_entries']} queue entries",
    )
    result.check(
        "under a saturated queue, malleability avoids the workflow's "
        "repeated queueing and turns around faster",
        malleable["turnaround"] < workflow["turnaround"],
        detail=(
            f"malleable {malleable['turnaround']:.0f}s vs "
            f"workflow {workflow['turnaround']:.0f}s"
        ),
    )

    # -- Scenario 2: neutral atom, long quantum phases --------------------------
    result.add_table(
        "Neutral-atom QPU (quantum phases > 30 min incl. calibration), "
        "idle cluster",
        [
            "strategy",
            "turnaround_s",
            "classical_held_node_s",
            "classical_eff",
            "mean_grow_wait_s",
            "state",
        ],
        rows2,
    )
    na_malleable = na_records["malleable"]
    na_coschedule = na_records["coschedule"]
    result.check(
        "during long quantum phases the malleable job returns the "
        "classical nodes: held node-seconds fall by > 3x vs exclusive "
        "co-scheduling",
        na_malleable["classical_held_node_seconds"]
        < na_coschedule["classical_held_node_seconds"] / 3.0,
        detail=(
            f"malleable {na_malleable['classical_held_node_seconds']:.0f} "
            f"vs coschedule "
            f"{na_coschedule['classical_held_node_seconds']:.0f} node-s"
        ),
    )
    grow_waits = na_malleable["grow_waits_s"]
    result.check(
        "resumption is fast: on an uncontended cluster the regrow is "
        "granted immediately (grow wait ~ 0)",
        bool(grow_waits) and max(grow_waits) < 1.0,
        detail=f"grow waits {grow_waits}",
    )
    reconfig_overhead = (
        na_malleable["turnaround"] - na_coschedule["turnaround"]
    )
    resizes = na_malleable["resizes"]
    result.check(
        "the malleability price is the reconfiguration cost "
        "(turnaround delta ~ resizes x cost)",
        reconfig_overhead
        <= resizes * reconfiguration_cost * 1.5 + 1.0,
        detail=(
            f"delta {reconfig_overhead:.1f}s for {resizes} resizes "
            f"at {reconfiguration_cost}s"
        ),
    )
    return result
