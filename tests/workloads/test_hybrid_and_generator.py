"""Tests for the trace kernel payload and the submission drivers."""

import numpy as np
import pytest

from repro.scenarios import ScenarioSpec, TopologySpec, build
from repro.scheduler.job import JobState
from repro.strategies.coschedule import CoScheduleStrategy
from repro.workloads.generator import CampaignDriver, submit_trace
from repro.workloads.swf import TraceJob, synthesise_trace


@pytest.fixture
def rng():
    return np.random.default_rng(9)


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

    def test_payload_shape_stays_in_its_bounds(self):
        from repro.workloads.hybrid import trace_kernel_payload

        for job_id in range(200):
            circuit, shots = trace_kernel_payload(job_id, max_qubits=127)
            assert 4 <= circuit.num_qubits <= 24
            assert 20 <= circuit.depth <= 200
            assert 500 <= shots <= 2000
            assert circuit.name == f"trace-kernel-{job_id}"


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
