"""Tests for the elastic QPU attach/detach strategy (extension S4)."""

import pytest

from repro.quantum.circuit import Circuit
from repro.quantum.technology import SUPERCONDUCTING
from repro.scenarios import (
    FleetSpec,
    PolicySpec,
    ScenarioSpec,
    TopologySpec,
    build,
)
from repro.strategies.application import vqe_like
from repro.strategies.coschedule import CoScheduleStrategy
from repro.strategies.elastic import ElasticQPUStrategy


def app_sc(iterations=3, classical_work=400.0, nodes=4):
    return vqe_like(
        iterations=iterations,
        classical_work=classical_work,
        circuit=Circuit(10, 100, geometry="g"),
        shots=1000,
        classical_nodes=nodes,
    )


def run_one(strategy, app, nodes=16, scheduling_cycle=0.0):
    env = build(
        ScenarioSpec(
            topology=TopologySpec(classical_nodes=nodes),
            fleet=FleetSpec(technology=SUPERCONDUCTING.name),
            policy=PolicySpec(scheduling_cycle=scheduling_cycle),
        )
    )
    run = strategy.launch(env, app)
    env.kernel.run(until=run.done)
    return run.record, env


class TestElasticBasics:
    def test_completes(self):
        record, _ = run_one(ElasticQPUStrategy(), app_sc())
        assert record.details["final_state"] == "completed"
        assert record.qpu_busy_seconds > 0

    def test_qpu_held_only_during_quantum_phases(self):
        app = app_sc()
        record, _ = run_one(ElasticQPUStrategy(attach_overhead=0.0), app)
        # Held time equals kernel execution time (no calibration here).
        assert record.qpu_held_seconds == pytest.approx(
            record.qpu_busy_seconds, rel=0.01
        )
        assert record.qpu_efficiency > 0.99

    def test_attach_waits_recorded_per_quantum_phase(self):
        app = app_sc(iterations=4)
        record, _ = run_one(ElasticQPUStrategy(), app)
        assert len(record.details["attach_waits_s"]) == 4

    def test_single_queue_entry(self):
        record, _ = run_one(ElasticQPUStrategy(), app_sc())
        assert len(record.queue_waits) == 1

    def test_attach_overhead_costs_time(self):
        app = app_sc()
        cheap, _ = run_one(ElasticQPUStrategy(attach_overhead=0.0), app)
        costly, _ = run_one(ElasticQPUStrategy(attach_overhead=10.0), app)
        expected = 10.0 * app.quantum_phase_count
        assert costly.turnaround - cheap.turnaround == pytest.approx(
            expected, rel=0.05
        )

    def test_scheduler_cycle_paid_per_attach(self):
        app = app_sc(iterations=3)
        instant, _ = run_one(
            ElasticQPUStrategy(attach_overhead=0.0), app
        )
        cycled, _ = run_one(
            ElasticQPUStrategy(attach_overhead=0.0),
            app,
            scheduling_cycle=30.0,
        )
        # Each of the 3 attaches costs up to one cycle plus the job's
        # own start cycle.
        delta = cycled.turnaround - instant.turnaround
        assert 30.0 <= delta <= 4 * 30.0 + 1.0


class TestElasticVsCoschedule:
    def test_device_free_between_phases(self):
        """During classical phases, another tenant can use the QPU."""
        env = build(ScenarioSpec(topology=TopologySpec(classical_nodes=16)))
        app_a = app_sc(nodes=4)
        app_b = app_sc(nodes=4)
        strategy = ElasticQPUStrategy()
        run_a = strategy.launch(env, app_a)
        run_b = strategy.launch(env, app_b)
        env.kernel.run(until=run_a.done)
        env.kernel.run(until=run_b.done)
        # Both tenants ran concurrently: the campaign is far shorter
        # than two serial co-scheduled runs would be.
        co_env = build(ScenarioSpec(topology=TopologySpec(classical_nodes=16)))
        co = CoScheduleStrategy()
        co_a = co.launch(co_env, app_a)
        co_env.kernel.run(until=co_a.done)
        serial_each = co_a.record.turnaround
        elastic_makespan = max(
            run_a.record.end_time, run_b.record.end_time
        )
        assert elastic_makespan < 2 * serial_each

    def test_less_qpu_held_than_coschedule(self):
        app = app_sc()
        elastic, _ = run_one(ElasticQPUStrategy(), app)
        coschedule, _ = run_one(CoScheduleStrategy(), app)
        assert elastic.qpu_held_seconds < 0.2 * coschedule.qpu_held_seconds
