"""Cross-strategy behaviour tests: the paper's core semantics."""

import pytest

from repro.quantum.circuit import Circuit
from repro.quantum.technology import NEUTRAL_ATOM, SUPERCONDUCTING
from repro.scenarios import FleetSpec, ScenarioSpec, TopologySpec, build
from repro.strategies.application import vqe_like
from repro.strategies.base import Environment
from repro.strategies.coschedule import CoScheduleStrategy
from repro.strategies.malleability import GrowMode, MalleableStrategy
from repro.strategies.vqpu import VQPUStrategy
from repro.strategies.workflow import WorkflowStrategy


def app_sc(iterations=3, classical_work=400.0, nodes=4, shots=1000):
    return vqe_like(
        iterations=iterations,
        classical_work=classical_work,
        circuit=Circuit(10, 100, geometry="g"),
        shots=shots,
        classical_nodes=nodes,
        min_classical_nodes=1,
    )


def run_one(strategy, app, technology=SUPERCONDUCTING, vqpus=1, nodes=16):
    env = build(
        ScenarioSpec(
            topology=TopologySpec(classical_nodes=nodes),
            fleet=FleetSpec(technology=technology.name, vqpus_per_qpu=vqpus),
        )
    )
    run = strategy.launch(env, app)
    env.kernel.run(until=run.done)
    return run.record, env


class TestCoSchedule:
    def test_completes_and_accounts(self):
        record, env = run_one(CoScheduleStrategy(), app_sc())
        assert record.details["final_state"] == "completed"
        assert record.turnaround is not None
        assert record.qpu_busy_seconds > 0
        assert record.classical_held_node_seconds > 0
        assert record.queue_waits == [0.0]

    def test_qpu_wasted_on_fast_device(self):
        record, _ = run_one(CoScheduleStrategy(), app_sc())
        assert record.qpu_efficiency < 0.2
        assert record.classical_efficiency > 0.8

    def test_classical_wasted_on_slow_device(self):
        app = app_sc(iterations=2, classical_work=100.0)
        record, _ = run_one(
            CoScheduleStrategy(), app, technology=NEUTRAL_ATOM
        )
        assert record.classical_efficiency < 0.2

    def test_hold_full_walltime_idles_tail(self):
        strategy = CoScheduleStrategy(
            walltime=3600.0, hold_full_walltime=True
        )
        record, _ = run_one(strategy, app_sc())
        assert record.turnaround == pytest.approx(3600.0, abs=1.0)
        assert record.details["idle_tail_s"] > 0

    def test_explicit_walltime_respected(self):
        strategy = CoScheduleStrategy(walltime=7200.0)
        record, _ = run_one(strategy, app_sc())
        assert record.details["walltime_s"] == 7200.0

    def test_turnaround_close_to_ideal_when_idle(self):
        app = app_sc()
        record, env = run_one(CoScheduleStrategy(), app)
        ideal = app.ideal_makespan(SUPERCONDUCTING)
        assert record.turnaround == pytest.approx(ideal, rel=0.05)


class TestWorkflow:
    def test_completes_with_per_step_jobs(self):
        app = app_sc()
        record, _ = run_one(WorkflowStrategy(), app)
        assert record.details["final_state"] == "completed"
        assert record.details["steps"] == len(app.phases)
        assert len(record.queue_waits) == len(app.phases)

    def test_high_qpu_efficiency(self):
        record, _ = run_one(WorkflowStrategy(), app_sc())
        assert record.qpu_efficiency > 0.9

    def test_high_classical_efficiency(self):
        record, _ = run_one(WorkflowStrategy(), app_sc())
        assert record.classical_efficiency > 0.95

    def test_same_useful_work_as_coschedule(self):
        app = app_sc()
        wf_record, _ = run_one(WorkflowStrategy(), app)
        co_record, _ = run_one(CoScheduleStrategy(), app)
        assert wf_record.classical_useful_node_seconds == pytest.approx(
            co_record.classical_useful_node_seconds, rel=1e-6
        )
        assert wf_record.qpu_busy_seconds == pytest.approx(
            co_record.qpu_busy_seconds, rel=1e-6
        )


class TestVQPU:
    def test_single_tenant_matches_coschedule(self):
        app = app_sc()
        vq_record, _ = run_one(VQPUStrategy(), app, vqpus=4)
        co_record, _ = run_one(CoScheduleStrategy(), app)
        assert vq_record.turnaround == pytest.approx(
            co_record.turnaround, rel=0.05
        )

    def test_tenants_share_one_physical_qpu(self):
        env = build(
            ScenarioSpec(
                topology=TopologySpec(classical_nodes=16),
                fleet=FleetSpec(
                    technology=SUPERCONDUCTING.name, vqpus_per_qpu=4
                ),
            )
        )
        strategy = VQPUStrategy()
        apps = [app_sc(nodes=2) for _ in range(4)]
        runs = [strategy.launch(env, app) for app in apps]
        for run in runs:
            env.kernel.run(until=run.done)
        qpu = env.primary_qpu()
        total_kernels = 4 * 3  # tenants x iterations
        assert qpu.jobs_executed == total_kernels
        # All tenants overlapped: campaign much shorter than serial.
        ends = [run.record.end_time for run in runs]
        serial = sum(
            run.record.turnaround for run in runs
        )
        assert max(ends) < serial

    def test_pool_records_requests(self):
        env = build(ScenarioSpec(fleet=FleetSpec(vqpus_per_qpu=2)))
        strategy = VQPUStrategy()
        run = strategy.launch(env, app_sc(nodes=2))
        env.kernel.run(until=run.done)
        pool = env.vqpu_pools[0]
        assert pool.total_requests == 3
        assert pool.delay_bound(10.0) == 10.0  # (2-1) x 10


class TestMalleable:
    def test_resizes_happen(self):
        app = app_sc()
        record, _ = run_one(MalleableStrategy(), app)
        assert record.details["final_state"] == "completed"
        assert record.details["resizes"] == 2 * app.quantum_phase_count

    def test_reconfiguration_cost_extends_runtime(self):
        app = app_sc()
        cheap, _ = run_one(
            MalleableStrategy(reconfiguration_cost=0.0), app
        )
        costly, _ = run_one(
            MalleableStrategy(reconfiguration_cost=10.0), app
        )
        expected_delta = 10.0 * 2 * app.quantum_phase_count
        assert costly.turnaround - cheap.turnaround == pytest.approx(
            expected_delta, rel=0.05
        )

    def test_holds_fewer_node_seconds_than_coschedule_on_slow_qpu(self):
        app = app_sc(iterations=2, classical_work=100.0)
        malleable, _ = run_one(
            MalleableStrategy(), app, technology=NEUTRAL_ATOM
        )
        coschedule, _ = run_one(
            CoScheduleStrategy(), app, technology=NEUTRAL_ATOM
        )
        assert (
            malleable.classical_held_node_seconds
            < 0.5 * coschedule.classical_held_node_seconds
        )

    def test_single_queue_entry(self):
        record, _ = run_one(MalleableStrategy(), app_sc())
        assert len(record.queue_waits) == 1

    def test_opportunistic_mode_completes(self):
        strategy = MalleableStrategy(grow_mode=GrowMode.OPPORTUNISTIC)
        record, _ = run_one(strategy, app_sc())
        assert record.details["final_state"] == "completed"
        assert record.details["grow_mode"] == "opportunistic"

    def test_min_nodes_retained_during_quantum(self):
        """The shrunken allocation equals min_classical_nodes."""
        app = app_sc()
        env = build(ScenarioSpec(topology=TopologySpec(classical_nodes=16)))
        observed = []

        class SpyStrategy(MalleableStrategy):
            pass

        strategy = SpyStrategy()
        run = strategy.launch(env, app)

        def spy(k):
            # Sample allocation size during the first quantum phase.
            while not run.done.triggered:
                jobs = env.scheduler.running
                if jobs:
                    allocation = jobs[0].allocation_for("classical")
                    observed.append(allocation.node_count)
                yield k.timeout(5.0)

        env.kernel.process(spy(env.kernel))
        env.kernel.run(until=run.done)
        assert min(observed) == app.min_classical_nodes
        assert max(observed) == app.classical_nodes


class TestEnvironmentFactory:
    def test_vqpu_pools_created(self):
        env = build(ScenarioSpec(fleet=FleetSpec(vqpus_per_qpu=4)))
        assert len(env.vqpu_pools) == 1
        assert env.vqpu_pools[0].size == 4
        quantum = env.cluster.partition("quantum")
        assert quantum.gres_capacity("qpu") == 4
        assert quantum.node_count == 4

    def test_no_pools_without_virtualisation(self):
        env = build(ScenarioSpec())
        assert env.vqpu_pools == []
        assert isinstance(env, Environment)

    def test_multiple_qpus(self):
        env = build(ScenarioSpec(fleet=FleetSpec(qpu_count=3)))
        assert len(env.qpus) == 3
        assert env.cluster.partition("quantum").gres_capacity("qpu") == 3

    def test_primary_qpu(self):
        env = build(ScenarioSpec())
        assert env.primary_qpu() is env.qpus[0]


class TestWorkflowSchedulerDriven:
    def test_scheduler_dependency_mode_matches_engine_mode(self):
        """Both workflow modes run the same app to the same result."""
        app = app_sc()
        engine_rec, _ = run_one(WorkflowStrategy(), app)
        sched_rec, _ = run_one(
            WorkflowStrategy(use_scheduler_dependencies=True), app
        )
        assert sched_rec.details["final_state"] == "completed"
        assert sched_rec.qpu_busy_seconds == pytest.approx(
            engine_rec.qpu_busy_seconds, rel=1e-6
        )
        # On an idle cluster, turnaround matches too.
        assert sched_rec.turnaround == pytest.approx(
            engine_rec.turnaround, rel=0.01
        )

    def test_scheduler_driven_submits_everything_up_front(self):
        app = app_sc()
        record, env = run_one(
            WorkflowStrategy(use_scheduler_dependencies=True), app
        )
        submits = {
            job.submit_time
            for job in env.scheduler.finished_jobs
            if job.spec.tags.get("strategy") == "workflow"
        }
        assert submits == {0.0}


class TestCoScheduleTimeoutPath:
    def test_undersized_walltime_records_timeout(self):
        app = app_sc()
        strategy = CoScheduleStrategy(walltime=10.0)  # far too small
        record, _ = run_one(strategy, app)
        assert record.details["final_state"] == "timeout"
        assert record.end_time is not None
        assert record.turnaround == pytest.approx(10.0, abs=0.5)
