"""Tests for the trace kernel payload and trace submission.

Campaign launching is tested with the run pipeline
(``tests/scenarios/test_run_pipeline.py``).
"""

import numpy as np
import pytest

from repro.scenarios import ScenarioSpec, TopologySpec, build
from repro.scheduler.job import JobState
from repro.workloads.generator import submit_trace
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
