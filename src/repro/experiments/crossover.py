"""E6 — Section 4 synthesis: "a one-size-fits-all solution is unlikely".

Sweeps the two axes the paper identifies as deciding which strategy
wins — the *direction of workload imbalance* (QPU technology: seconds
vs minutes vs >30 min per quantum task) and the *cluster load* — and
runs a multi-tenant campaign under every strategy in every cell.

The regime map the paper sketches in prose is then checked explicitly:

- short quantum tasks (superconducting) + several tenants →
  virtual QPUs dominate (co-scheduling serialises the tenants);
- long quantum tasks (neutral atom) → virtualisation is marginal;
  strategies that release classical nodes during quantum phases
  (workflow, malleable) waste far fewer node-seconds;
- saturated classical queue → malleability beats workflows (one queue
  wait instead of one per step);
- exclusive co-scheduling never wins a cell on efficiency.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.experiments.common import campaign_scenario, standard_hybrid_app
from repro.experiments.harness import (
    ExperimentResult,
    attach_sweep_failures,
)
from repro.experiments.sweep import (
    SweepSpec,
    run_cached_sweep,
)
from repro.metrics.stats import mean
from repro.quantum.technology import (
    NEUTRAL_ATOM,
    SUPERCONDUCTING,
    TRAPPED_ION,
    QPUTechnology,
)
from repro.scenarios.build import run_campaign
from repro.strategies.coschedule import CoScheduleStrategy
from repro.strategies.elastic import ElasticQPUStrategy
from repro.strategies.malleability import MalleableStrategy
from repro.strategies.vqpu import VQPUStrategy
from repro.strategies.workflow import WorkflowStrategy

#: (label, technology, tenants, iterations, classical phase seconds, shots)
_TECH_CELLS: List[Tuple[str, QPUTechnology, int, int, float, int]] = [
    ("superconducting", SUPERCONDUCTING, 6, 4, 120.0, 1000),
    ("trapped_ion", TRAPPED_ION, 4, 3, 120.0, 500),
    ("neutral_atom", NEUTRAL_ATOM, 2, 2, 300.0, 1000),
]

_LOADS = (("low load", 0.0), ("high load", 1.1))

_STRATEGY_NAMES = ("coschedule", "workflow", "vqpu", "malleable", "elastic")


def _make_strategy(name: str, tenants: int):
    """Strategy instance + VQPU count for one grid point."""
    if name == "coschedule":
        return CoScheduleStrategy(), 1
    if name == "workflow":
        return WorkflowStrategy(), 1
    if name == "vqpu":
        return VQPUStrategy(), tenants
    if name == "malleable":
        return MalleableStrategy(), 1
    # Extension (S4): single job, QPU attached per quantum phase.
    return ElasticQPUStrategy(), 1


def _run_cell(params: Dict[str, Any], seed: int) -> Dict[str, float]:
    """One grid point: a full multi-tenant campaign in a fresh facility."""
    tech_label = params["technology"]
    name = params["strategy"]
    rho = dict(_LOADS)[params["load"]]
    _, technology, tenants, iterations, phase_s, shots = next(
        cell for cell in _TECH_CELLS if cell[0] == tech_label
    )
    strategy, vqpus = _make_strategy(name, tenants)
    apps = [
        standard_hybrid_app(
            technology,
            iterations=iterations,
            classical_phase_seconds=phase_s,
            classical_nodes=4,
            min_classical_nodes=1,
            shots=shots,
            name=f"{tech_label[:2]}-{name}-t{index}",
        )
        for index in range(tenants)
    ]
    submit_at = params["warmup"] if rho > 0 else 0.0
    records, env = run_campaign(
        strategy,
        apps,
        scenario=campaign_scenario(
            technology,
            classical_nodes=8 * tenants,
            vqpus_per_qpu=vqpus,
            background_rho=rho,
            background_horizon=params["horizon"],
            scheduling_cycle=params["scheduling_cycle"],
            seed=seed,
            name=f"crossover-{tech_label}-{name}",
        ),
        submit_times=[submit_at] * tenants,
    )
    del env
    turnarounds = [r.turnaround for r in records if r.turnaround]
    wasted = sum(
        max(
            r.classical_held_node_seconds - r.classical_useful_node_seconds,
            0.0,
        )
        for r in records
    )
    completed = sum(
        1 for r in records if r.details.get("final_state") == "completed"
    )
    return {
        "mean_turnaround": mean(turnarounds),
        "wasted_node_s": wasted,
        "completed": completed,
        "queue_entries": mean(
            [float(len(r.queue_waits)) for r in records]
        ),
        "tenants": tenants,
    }


def sweep_spec(
    seed: int = 0,
    horizon: float = 10 * 3600.0,
    scheduling_cycle: float = 30.0,
    warmup: float = 3600.0,
) -> SweepSpec:
    """The experiment's grid: technology x load x strategy (30 points)."""
    return SweepSpec(
        experiment_id="E6",
        axes={
            "technology": [cell[0] for cell in _TECH_CELLS],
            "load": [label for label, _ in _LOADS],
            "strategy": list(_STRATEGY_NAMES),
        },
        constants={
            "horizon": horizon,
            "scheduling_cycle": scheduling_cycle,
            "warmup": warmup,
        },
        base_seed=seed,
        # Matched universes: every cell faces the same random
        # environment, as the paper's comparison requires.
        seed_mode="shared",
    )


def run(
    seed: int = 0,
    horizon: float = 10 * 3600.0,
    scheduling_cycle: float = 30.0,
    warmup: float = 3600.0,
    **sweep_options: Any,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E6",
        title="Strategy crossover map (Section 4 synthesis)",
        description=(
            "Multi-tenant campaigns under every strategy across QPU "
            "technology x cluster load (30 s scheduler cycle, as on "
            "production systems).  Winners by mean tenant turnaround "
            "and by wasted classical node-seconds reproduce the "
            "paper's regime assignments."
        ),
        parameters={"seed": seed, "scheduling_cycle_s": scheduling_cycle},
    )
    sweep_result = run_cached_sweep(
        sweep_spec(
            seed=seed,
            horizon=horizon,
            scheduling_cycle=scheduling_cycle,
            warmup=warmup,
        ),
        _run_cell,
        **sweep_options,
    )
    if attach_sweep_failures(result, sweep_result):
        return result
    rows: List[List[Any]] = []
    cells: Dict[Tuple[str, str], Dict[str, Dict[str, float]]] = {}
    for point, metrics in zip(sweep_result.points, sweep_result.values):
        tech_label = point.params["technology"]
        load_label = point.params["load"]
        name = point.params["strategy"]
        cells.setdefault((tech_label, load_label), {})[name] = metrics
        rows.append(
            [
                tech_label,
                load_label,
                name,
                round(metrics["mean_turnaround"], 1),
                round(metrics["wasted_node_s"], 1),
                f"{metrics['completed']:.0f}/{metrics['tenants']:.0f}",
            ]
        )
    result.add_table(
        "Crossover sweep (mean tenant turnaround / wasted classical "
        "node-seconds)",
        [
            "technology",
            "load",
            "strategy",
            "mean_turnaround_s",
            "wasted_node_s",
            "completed",
        ],
        rows,
    )

    def winner(cell: Dict[str, Dict[str, float]], metric: str) -> str:
        return min(cell, key=lambda name: cell[name][metric])

    # Regime table (the paper's qualitative map, measured).
    regime_rows = []
    for key, cell in cells.items():
        regime_rows.append(
            [
                key[0],
                key[1],
                winner(cell, "mean_turnaround"),
                winner(cell, "wasted_node_s"),
            ]
        )
    result.add_table(
        "Measured regime map",
        ["technology", "load", "best turnaround", "least waste"],
        regime_rows,
    )

    sc_low = cells[("superconducting", "low load")]
    result.check(
        "short quantum tasks, multiple tenants: VQPUs give the best "
        "turnaround (exclusive co-scheduling serialises)",
        winner(sc_low, "mean_turnaround") == "vqpu",
        detail=f"winner: {winner(sc_low, 'mean_turnaround')}",
    )
    na_low = cells[("neutral_atom", "low load")]
    vqpu_gain = (
        na_low["coschedule"]["mean_turnaround"]
        / max(na_low["vqpu"]["mean_turnaround"], 1e-9)
    )
    sc_gain = (
        sc_low["coschedule"]["mean_turnaround"]
        / max(sc_low["vqpu"]["mean_turnaround"], 1e-9)
    )
    result.check(
        "virtualisation gains shrink on slow QPUs (neutral atom) "
        "relative to fast ones (superconducting)",
        vqpu_gain < sc_gain,
        detail=f"NA gain {vqpu_gain:.2f}x vs SC gain {sc_gain:.2f}x",
    )
    result.check(
        "on slow QPUs, node-releasing strategies (workflow/malleable) "
        "waste the least classical time",
        winner(na_low, "wasted_node_s") in ("workflow", "malleable"),
        detail=f"least waste: {winner(na_low, 'wasted_node_s')}",
    )
    sc_high = cells[("superconducting", "high load")]
    result.check(
        "under a saturated classical queue, the malleable single-job "
        "approach avoids the workflow's repeated queueing (it re-enters "
        "the queue at most via regrows, never per step)",
        sc_high["malleable"]["queue_entries"]
        < sc_high["workflow"]["queue_entries"],
        detail=(
            f"malleable {sc_high['malleable']['queue_entries']:.0f} "
            f"queue entries vs workflow "
            f"{sc_high['workflow']['queue_entries']:.0f}"
        ),
    )
    coschedule_efficiency_wins = sum(
        1
        for cell in cells.values()
        if winner(cell, "wasted_node_s") == "coschedule"
    )
    result.check(
        "exclusive co-scheduling never wins a cell on wasted "
        "node-seconds (it is the 'inadequate' baseline)",
        coschedule_efficiency_wins == 0,
        detail=f"{coschedule_efficiency_wins} cells won by coschedule",
    )
    elastic_vs_vqpu = all(
        cells[("superconducting", load)]["elastic"]["mean_turnaround"]
        >= cells[("superconducting", load)]["vqpu"]["mean_turnaround"]
        * 0.95
        for load, _ in _LOADS
    )
    result.check(
        "elastic attach/detach (extension) pays a scheduler negotiation "
        "per quantum phase, so VQPUs keep the turnaround edge where "
        "kernels are shorter than the scheduling cycle "
        "(superconducting cells)",
        elastic_vs_vqpu,
    )
    return result
