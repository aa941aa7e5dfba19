"""Shared scenario builders for the experiment modules.

Every experiment declares its facility as a
:class:`~repro.scenarios.spec.ScenarioSpec` (usually via
:func:`campaign_scenario`) and materialises it through the single
:func:`repro.scenarios.build.build` pipeline; :func:`run_campaign`
drives a set of hybrid applications through one strategy inside such a
scenario.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.quantum.technology import QPUTechnology
from repro.scenarios.build import build, install_background
from repro.scenarios.spec import (
    FleetSpec,
    PolicySpec,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
)
from repro.quantum.circuit import Circuit
from repro.strategies.application import HybridApplication, vqe_like
from repro.strategies.base import Environment, IntegrationStrategy, RunRecord
from repro.workloads.generator import CampaignDriver

__all__ = [
    "campaign_scenario",
    "run_campaign",
    "standard_hybrid_app",
]


def campaign_scenario(
    technology: QPUTechnology,
    classical_nodes: int = 32,
    vqpus_per_qpu: int = 1,
    background_rho: float = 0.0,
    background_horizon: float = 0.0,
    scheduling_cycle: float = 0.0,
    seed: int = 0,
    name: Optional[str] = None,
) -> ScenarioSpec:
    """The scenario one experiment campaign runs under.

    A two-partition facility around ``technology`` with an optional
    Poisson background of offered load ``background_rho`` over
    ``background_horizon``.
    """
    return ScenarioSpec(
        name=name or f"campaign-{technology.name}",
        topology=TopologySpec(classical_nodes=classical_nodes),
        fleet=FleetSpec(
            technology=technology.name, vqpus_per_qpu=vqpus_per_qpu
        ),
        workload=WorkloadSpec(
            background_rho=background_rho, horizon=background_horizon
        ),
        policy=PolicySpec(scheduling_cycle=scheduling_cycle),
        seed=seed,
    )


def standard_hybrid_app(
    technology: QPUTechnology,
    iterations: int = 5,
    classical_phase_seconds: float = 120.0,
    classical_nodes: int = 8,
    shots: int = 1000,
    geometry: str = "geom0",
    min_classical_nodes: int = 1,
    name: Optional[str] = None,
) -> HybridApplication:
    """The canonical VQE-style app used across experiments.

    ``classical_phase_seconds`` is the *wall* duration of each
    classical phase at ``classical_nodes`` (the single-node work is
    scaled up accordingly), so scenarios are specified in observable
    time rather than abstract work units.
    """
    probe = vqe_like(
        iterations=1,
        classical_work=1.0,
        circuit=Circuit(2, 1),
        classical_nodes=classical_nodes,
    )
    scale = probe.classical_time(probe.phases[0], classical_nodes)
    work = classical_phase_seconds / scale
    circuit = Circuit(
        num_qubits=min(20, technology.num_qubits),
        depth=100,
        geometry=geometry,
        name=f"std-{technology.name}",
    )
    return vqe_like(
        iterations=iterations,
        classical_work=work,
        circuit=circuit,
        shots=shots,
        classical_nodes=classical_nodes,
        min_classical_nodes=min_classical_nodes,
        name=name or f"std-{technology.name}-{iterations}it",
    )


def run_campaign(
    strategy: IntegrationStrategy,
    apps: Sequence[HybridApplication],
    scenario: ScenarioSpec,
    submit_times: Optional[Sequence[float]] = None,
) -> tuple[List[RunRecord], Environment]:
    """Run ``apps`` under ``strategy`` in a fresh ``scenario`` facility.

    Returns the per-app records plus the environment (for facility
    metrics); the scenario's background workload is injected before
    the campaign launches.

    >>> from repro.quantum.technology import SUPERCONDUCTING
    >>> from repro.strategies import CoScheduleStrategy
    >>> scenario = campaign_scenario(SUPERCONDUCTING, classical_nodes=8)
    >>> app = standard_hybrid_app(SUPERCONDUCTING, iterations=2)
    >>> records, env = run_campaign(CoScheduleStrategy(), [app], scenario)
    >>> len(records)
    1
    """
    env = build(scenario)
    install_background(env, scenario.workload)
    driver = CampaignDriver(env, strategy)
    driver.launch_all(list(apps), submit_times)
    records = driver.collect()
    return records, env
