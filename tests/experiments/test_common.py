"""Tests for the shared experiment scenario builders."""

import pytest

from repro.cluster.builders import QUANTUM_PARTITION
from repro.experiments.common import (
    campaign_scenario,
    run_campaign,
    standard_hybrid_app,
)
from repro.quantum.technology import NEUTRAL_ATOM, SUPERCONDUCTING
from repro.scenarios import (
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    background_trace,
    build,
    install_background,
)
from repro.scenarios.build import offered_load_interarrival
from repro.strategies.coschedule import CoScheduleStrategy
from repro.strategies.vqpu import VirtualQPUPool


def _facility(seed: int = 0):
    return build(
        ScenarioSpec(topology=TopologySpec(classical_nodes=32), seed=seed)
    )


class TestOfferedLoad:
    def test_definition(self):
        # rho = nodes*runtime / (interarrival*cluster) => solve for IA.
        interarrival = offered_load_interarrival(
            rho=0.5, cluster_nodes=32, mean_job_nodes=8,
            mean_job_runtime=400.0,
        )
        assert interarrival == pytest.approx(
            (8 * 400.0) / (0.5 * 32)
        )

    def test_higher_rho_means_faster_arrivals(self):
        slow = offered_load_interarrival(0.2, 32, 8, 400.0)
        fast = offered_load_interarrival(0.9, 32, 8, 400.0)
        assert fast < slow

    def test_invalid_rho(self):
        with pytest.raises(ValueError):
            offered_load_interarrival(0.0, 32, 8, 400.0)


class TestBackgroundTrace:
    def test_covers_horizon(self):
        env = _facility(seed=0)
        trace = background_trace(
            env, WorkloadSpec(background_rho=0.5, horizon=7200.0)
        )
        assert trace
        assert trace[-1].submit_time < 7200.0 * 10

    def test_install_background_submits(self):
        env = _facility(seed=0)
        jobs = install_background(
            env, WorkloadSpec(background_rho=0.5, horizon=3600.0)
        )
        env.kernel.run(until=3600.0)
        assert jobs  # replay processes have materialised submissions

    def test_deterministic_per_seed(self):
        workload = WorkloadSpec(background_rho=0.5, horizon=3600.0)
        trace_a = background_trace(_facility(seed=5), workload)
        trace_b = background_trace(_facility(seed=5), workload)
        assert [(j.submit_time, j.nodes) for j in trace_a] == [
            (j.submit_time, j.nodes) for j in trace_b
        ]


class TestCampaignScenario:
    """Each ``campaign_scenario`` argument reaches the built facility."""

    def test_classical_nodes(self):
        env = build(campaign_scenario(SUPERCONDUCTING, classical_nodes=12))
        assert env.cluster.partition("classical").node_count == 12

    def test_vqpus_per_qpu(self):
        env = build(campaign_scenario(SUPERCONDUCTING, vqpus_per_qpu=3))
        quantum = env.cluster.partition(QUANTUM_PARTITION)
        assert quantum.gres_capacity("qpu") == 3
        assert len(env.vqpu_pools) == 1
        assert isinstance(env.vqpu_pools[0], VirtualQPUPool)
        assert env.vqpu_pools[0].size == 3

    def test_scheduling_cycle(self):
        env = build(
            campaign_scenario(SUPERCONDUCTING, scheduling_cycle=30.0)
        )
        assert env.scheduler.cycle_time == 30.0

    def test_background_submits_jobs(self):
        scenario = campaign_scenario(
            SUPERCONDUCTING, background_rho=0.5, background_horizon=3600.0
        )
        env = build(scenario)
        jobs = install_background(env, scenario.workload)
        env.kernel.run(until=3600.0)
        assert jobs

    def test_zero_rho_submits_nothing(self):
        scenario = campaign_scenario(
            SUPERCONDUCTING, background_rho=0.0, background_horizon=3600.0
        )
        env = build(scenario)
        jobs = install_background(env, scenario.workload)
        env.kernel.run(until=3600.0)
        assert jobs == []
        assert env.scheduler.finished_jobs == []

    def test_name_and_seed(self):
        scenario = campaign_scenario(
            NEUTRAL_ATOM, seed=7, name="my-campaign"
        )
        assert scenario.name == "my-campaign"
        assert scenario.seed == 7
        assert build(scenario).streams.seed == 7

    def test_default_name_names_the_technology(self):
        scenario = campaign_scenario(NEUTRAL_ATOM)
        assert scenario.name == f"campaign-{NEUTRAL_ATOM.name}"
        assert scenario.fleet.technology == NEUTRAL_ATOM.name


class TestStandardHybridApp:
    def test_phase_wall_duration_matches_request(self):
        app = standard_hybrid_app(
            SUPERCONDUCTING,
            iterations=3,
            classical_phase_seconds=120.0,
            classical_nodes=8,
        )
        phase = app.phases[0]
        assert app.classical_time(phase, 8) == pytest.approx(120.0)

    def test_circuit_clamped_to_technology(self):
        app = standard_hybrid_app(NEUTRAL_ATOM, iterations=1)
        quantum_phase = app.phases[1]
        assert quantum_phase.circuit.num_qubits <= (
            NEUTRAL_ATOM.num_qubits
        )

    def test_geometry_propagates(self):
        app = standard_hybrid_app(
            NEUTRAL_ATOM, iterations=1, geometry="ring"
        )
        assert app.phases[1].circuit.geometry == "ring"


class TestRunCampaign:
    def test_returns_records_and_env(self):
        app = standard_hybrid_app(
            SUPERCONDUCTING, iterations=2, classical_phase_seconds=30.0,
            classical_nodes=2,
        )
        records, env = run_campaign(
            CoScheduleStrategy(),
            [app, app],
            campaign_scenario(SUPERCONDUCTING, classical_nodes=8, seed=0),
        )
        assert len(records) == 2
        assert env.kernel.now > 0

    def test_background_injection(self):
        app = standard_hybrid_app(
            SUPERCONDUCTING, iterations=1, classical_phase_seconds=30.0,
            classical_nodes=2,
        )
        records, env = run_campaign(
            CoScheduleStrategy(),
            [app],
            campaign_scenario(
                SUPERCONDUCTING,
                classical_nodes=16,
                background_rho=0.5,
                background_horizon=1800.0,
                seed=0,
            ),
        )
        env.kernel.run()  # drain the remaining background replay
        trace_jobs = [
            j
            for j in (
                env.scheduler.finished_jobs + env.scheduler.running
                + env.scheduler.pending
            )
            if j.spec.tags.get("source") == "trace"
        ]
        assert trace_jobs
