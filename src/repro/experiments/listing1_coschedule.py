"""E2 — Listing 1: the co-scheduling waste, in both directions.

Reproduces the paper's Section 3 example quantitatively: a hybrid job
co-allocating 10 classical nodes and 1 QPU for one hour, exclusively.

- On a *superconducting* QPU (quantum tasks of seconds) the QPU sits
  idle during the classical phases: its utilisation inside the
  allocation collapses to a few percent.
- On a *neutral-atom* QPU (tasks beyond 30 min including geometry
  calibration) the classical nodes idle while waiting for the quantum
  step.

"Simple co-scheduling with exclusive QPU access is inadequate for
achieving optimal resource utilization."
"""

from __future__ import annotations

from typing import Any, Dict

from repro.experiments.harness import (
    ExperimentResult,
    attach_sweep_failures,
)
from repro.experiments.sweep import SweepSpec, run_cached_sweep
from repro.quantum.circuit import Circuit
from repro.quantum.technology import TECHNOLOGIES, QPUTechnology
from repro.scenarios import FleetSpec, ScenarioSpec, TopologySpec, build
from repro.strategies.application import HybridApplication, vqe_like
from repro.strategies.coschedule import CoScheduleStrategy

#: Listing 1 parameters.
CLASSICAL_NODES = 10
WALLTIME = 3600.0

#: One arm per technology, fast QPU to slow.
_TECHNOLOGIES = ("superconducting", "trapped_ion", "neutral_atom")


def listing1_scenario(
    technology: QPUTechnology, seed: int = 0
) -> ScenarioSpec:
    """Listing 1's facility: 10 classical nodes + one exclusive QPU."""
    return ScenarioSpec(
        name=f"listing1-{technology.name}",
        description=(
            "The Section 3 co-scheduling example: a hetjob holding "
            "10 classical nodes and 1 QPU for a one-hour walltime."
        ),
        topology=TopologySpec(classical_nodes=CLASSICAL_NODES),
        fleet=FleetSpec(technology=technology.name),
        seed=seed,
    )


def _listing1_app(technology: QPUTechnology) -> HybridApplication:
    """A hybrid app sized to (almost) fill the one-hour allocation.

    Iterations of ~50 s classical optimisation followed by a 1000-shot
    kernel, with the iteration count chosen so the ideal makespan stays
    inside the walltime on the given technology.
    """
    circuit = Circuit(
        num_qubits=min(20, technology.num_qubits),
        depth=100,
        geometry="fixed",
        name=f"listing1-{technology.name}",
    )
    classical_work = 50.0 * CLASSICAL_NODES  # ~50 s at 10 nodes
    probe = vqe_like(
        iterations=1,
        classical_work=classical_work,
        circuit=circuit,
        shots=1000,
        classical_nodes=CLASSICAL_NODES,
    )
    per_iteration = probe.ideal_makespan(technology)
    calibration = probe.calibration_overhead(technology)
    budget = WALLTIME * 0.9 - calibration
    iterations = max(int(budget // max(per_iteration - calibration, 1.0)), 1)
    return vqe_like(
        iterations=iterations,
        classical_work=classical_work,
        circuit=circuit,
        shots=1000,
        classical_nodes=CLASSICAL_NODES,
        name=f"listing1-{technology.name}",
    )


def _run_point(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """One technology's exclusive one-hour co-allocation."""
    technology = TECHNOLOGIES[params["technology"]]
    env = build(listing1_scenario(technology, seed=seed))
    app = _listing1_app(technology)
    strategy = CoScheduleStrategy(
        walltime=WALLTIME, hold_full_walltime=True
    )
    run = strategy.launch(env, app)
    env.kernel.run(until=run.done)
    record = run.record
    # Classical-side utilisation inside the allocation: useful
    # node-seconds over held node-seconds; quantum-side likewise.
    return {
        "iterations": app.quantum_phase_count,
        "qpu_busy_seconds": record.qpu_busy_seconds,
        "qpu_held_seconds": record.qpu_held_seconds,
        "qpu_busy_fraction": record.qpu_efficiency,
        "classical_busy_fraction": record.classical_efficiency,
        "final_state": record.details.get("final_state"),
    }


def sweep_spec(seed: int = 0) -> SweepSpec:
    """One point per technology; all share the run's seed."""
    return SweepSpec(
        experiment_id="E2",
        axes={"technology": _TECHNOLOGIES},
        base_seed=seed,
        seed_mode="shared",
    )


def run(seed: int = 0, **sweep_options: Any) -> ExperimentResult:
    """Regenerate the Listing 1 under-utilisation result."""
    result = ExperimentResult(
        experiment_id="E2",
        title="Exclusive co-scheduling waste (Listing 1)",
        description=(
            "One hetjob holds 10 classical nodes + 1 QPU for a one-hour "
            "walltime and runs a variational loop inside it.  Utilisation "
            "of each side of the allocation shows the direction of the "
            "waste flip with QPU technology."
        ),
        parameters={
            "classical_nodes": CLASSICAL_NODES,
            "walltime_s": WALLTIME,
            "seed": seed,
        },
    )
    sweep_result = run_cached_sweep(
        sweep_spec(seed=seed), _run_point, **sweep_options
    )
    if attach_sweep_failures(result, sweep_result):
        return result
    fractions = dict(zip(_TECHNOLOGIES, sweep_result.values))
    rows = [
        [
            name,
            point["iterations"],
            round(point["qpu_busy_seconds"], 1),
            round(point["qpu_held_seconds"], 1),
            round(point["qpu_busy_fraction"], 4),
            round(point["classical_busy_fraction"], 4),
            point["final_state"],
        ]
        for name, point in fractions.items()
    ]
    result.add_table(
        "Utilisation inside the exclusive 1 h co-allocation",
        [
            "technology",
            "quantum tasks",
            "qpu_busy_s",
            "qpu_held_s",
            "qpu_utilisation",
            "classical_utilisation",
            "state",
        ],
        rows,
    )

    sc = fractions["superconducting"]
    na = fractions["neutral_atom"]
    result.check(
        "superconducting: QPU exclusively held but utilised below 15% "
        "(heavy QPU under-utilisation)",
        sc["qpu_busy_fraction"] < 0.15,
        detail=f"QPU busy fraction {sc['qpu_busy_fraction']:.3f}",
    )
    result.check(
        "superconducting: classical side is the busy one (> 60%)",
        sc["classical_busy_fraction"] > 0.60,
        detail=f"classical fraction {sc['classical_busy_fraction']:.3f}",
    )
    result.check(
        "neutral atom: classical nodes idle waiting for the quantum job "
        "(< 20% utilisation)",
        na["classical_busy_fraction"] < 0.20,
        detail=f"classical fraction {na['classical_busy_fraction']:.3f}",
    )
    result.check(
        "the direction of the waste flips between technologies",
        sc["qpu_busy_fraction"] < sc["classical_busy_fraction"]
        and na["qpu_busy_fraction"] > na["classical_busy_fraction"],
    )
    return result
