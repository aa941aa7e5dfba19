"""Tests for the hybrid-app generator and submission drivers."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.quantum.technology import SUPERCONDUCTING
from repro.scenarios import ScenarioSpec, TopologySpec, build
from repro.scheduler.job import JobState
from repro.strategies.application import PhaseKind
from repro.strategies.coschedule import CoScheduleStrategy
from repro.workloads.generator import CampaignDriver, submit_trace
from repro.workloads.hybrid import HybridAppConfig, HybridAppGenerator
from repro.workloads.swf import TraceJob, synthesise_trace


@pytest.fixture
def rng():
    return np.random.default_rng(9)


class TestHybridAppGenerator:
    def test_generates_valid_apps(self, rng):
        generator = HybridAppGenerator(rng)
        apps = generator.apps(10)
        assert len(apps) == 10
        for app in apps:
            assert app.phases[0].kind == PhaseKind.CLASSICAL
            assert app.quantum_phase_count >= 1
            assert 1 <= app.min_classical_nodes <= app.classical_nodes

    def test_iteration_bounds(self, rng):
        config = HybridAppConfig(iterations_low=3, iterations_high=3)
        generator = HybridAppGenerator(rng, config)
        for app in generator.apps(5):
            assert app.quantum_phase_count == 3

    def test_geometries_from_pool(self, rng):
        config = HybridAppConfig(geometry_pool=("only",))
        generator = HybridAppGenerator(rng, config)
        app = generator.next_app()
        geometries = {
            phase.circuit.geometry
            for phase in app.phases
            if phase.is_quantum
        }
        assert geometries == {"only"}

    def test_qubits_clamped_to_device(self, rng):
        generator = HybridAppGenerator(rng, max_qubits=5)
        for app in generator.apps(10):
            for phase in app.phases:
                if phase.is_quantum:
                    assert phase.circuit.num_qubits <= 5

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            HybridAppConfig(iterations_low=5, iterations_high=2)
        with pytest.raises(ConfigurationError):
            HybridAppConfig(geometry_pool=())
        with pytest.raises(ConfigurationError):
            HybridAppConfig(min_nodes_fraction=0.0)

    def test_negative_count_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            HybridAppGenerator(rng).apps(-1)

    def test_unique_names(self, rng):
        generator = HybridAppGenerator(rng)
        names = [app.name for app in generator.apps(20)]
        assert len(set(names)) == 20

    def test_fleet_clamps_to_largest_register(self, rng):
        from repro.quantum.fleet import QPUFleet
        from repro.quantum.qpu import QPU
        from repro.quantum.technology import TRAPPED_ION
        from repro.sim.kernel import Kernel

        kernel = Kernel()
        fleet = QPUFleet(
            [
                QPU(kernel, TRAPPED_ION, name="ti0"),  # 32 qubits
                QPU(kernel, SUPERCONDUCTING, name="sc0"),  # 127
            ]
        )
        generator = HybridAppGenerator(rng, fleet=fleet)
        assert generator.max_qubits == 127

    def test_explicit_max_qubits_beats_fleet(self, rng):
        from repro.quantum.fleet import QPUFleet
        from repro.quantum.qpu import QPU
        from repro.sim.kernel import Kernel

        kernel = Kernel()
        fleet = QPUFleet([QPU(kernel, SUPERCONDUCTING, name="sc0")])
        generator = HybridAppGenerator(rng, max_qubits=5, fleet=fleet)
        assert generator.max_qubits == 5


class TestTraceKernelPayload:
    def test_deterministic_and_seed_independent(self):
        from repro.workloads.hybrid import trace_kernel_payload

        first = trace_kernel_payload(42, max_qubits=127)
        second = trace_kernel_payload(42, max_qubits=127)
        assert first == second

    def test_distinct_jobs_get_distinct_payloads(self):
        from repro.workloads.hybrid import trace_kernel_payload

        payloads = {
            trace_kernel_payload(job_id, max_qubits=127)
            for job_id in range(20)
        }
        assert len(payloads) > 1

    def test_width_clamped_to_fleet_register(self):
        from repro.workloads.hybrid import trace_kernel_payload

        for job_id in range(30):
            circuit, shots = trace_kernel_payload(job_id, max_qubits=6)
            assert 1 <= circuit.num_qubits <= 6
            assert shots >= 1


class TestSubmitTrace:
    def test_jobs_submitted_at_trace_times(self):
        env = build(ScenarioSpec(topology=TopologySpec(classical_nodes=64)))
        trace = [
            TraceJob(1, 10.0, 20.0, 2, 100.0),
            TraceJob(2, 50.0, 20.0, 2, 100.0),
        ]
        jobs = submit_trace(env, trace)
        env.kernel.run(until=200.0)
        assert len(jobs) == 2
        assert jobs[0].submit_time == 10.0
        assert jobs[1].submit_time == 50.0
        assert all(job.state == JobState.COMPLETED for job in jobs)

    def test_synthetic_trace_replay_completes(self, rng):
        env = build(ScenarioSpec(topology=TopologySpec(classical_nodes=64)))
        trace = synthesise_trace(
            rng, job_count=20, mean_interarrival=50.0
        )
        jobs = submit_trace(env, trace)
        env.kernel.run()
        done = sum(1 for job in jobs if job.state == JobState.COMPLETED)
        assert done == 20


class TestCampaignDriver:
    def test_collects_all_records(self):
        from repro.quantum.circuit import Circuit
        from repro.strategies.application import vqe_like

        env = build(ScenarioSpec(topology=TopologySpec(classical_nodes=16)))
        driver = CampaignDriver(env, CoScheduleStrategy())
        apps = [
            vqe_like(2, 50.0, Circuit(5, 10), classical_nodes=2)
            for _ in range(3)
        ]
        driver.launch_all(apps)
        records = driver.collect()
        assert len(records) == 3
        assert all(record.end_time is not None for record in records)

    def test_staggered_submissions(self):
        from repro.quantum.circuit import Circuit
        from repro.strategies.application import vqe_like

        env = build(ScenarioSpec(topology=TopologySpec(classical_nodes=16)))
        driver = CampaignDriver(env, CoScheduleStrategy())
        apps = [
            vqe_like(1, 50.0, Circuit(5, 10), classical_nodes=2)
            for _ in range(2)
        ]
        driver.launch_all(apps, submit_times=[100.0, 200.0])
        records = driver.collect()
        assert records[0].submit_time == 100.0
        assert records[1].submit_time == 200.0

    def test_mismatched_submit_times_rejected(self):
        from repro.quantum.circuit import Circuit
        from repro.strategies.application import vqe_like

        env = build(ScenarioSpec())
        driver = CampaignDriver(env, CoScheduleStrategy())
        with pytest.raises(ValueError):
            driver.launch_all(
                [vqe_like(1, 10.0, Circuit(4, 5))], submit_times=[1.0, 2.0]
            )

    def test_empty_submit_times_rejected_not_launched_now(self):
        from repro.quantum.circuit import Circuit
        from repro.strategies.application import vqe_like

        env = build(ScenarioSpec())
        driver = CampaignDriver(env, CoScheduleStrategy())
        apps = [vqe_like(1, 10.0, Circuit(4, 5)) for _ in range(2)]
        with pytest.raises(ValueError):
            driver.launch_all(apps, submit_times=[])
        assert driver.collect() == []

    def test_array_submit_times_accepted(self):
        from repro.quantum.circuit import Circuit
        from repro.strategies.application import vqe_like

        env = build(ScenarioSpec(topology=TopologySpec(classical_nodes=16)))
        driver = CampaignDriver(env, CoScheduleStrategy())
        apps = [
            vqe_like(1, 50.0, Circuit(5, 10), classical_nodes=2)
            for _ in range(2)
        ]
        driver.launch_all(apps, submit_times=np.array([100.0, 200.0]))
        records = driver.collect()
        assert [record.submit_time for record in records] == [100.0, 200.0]
