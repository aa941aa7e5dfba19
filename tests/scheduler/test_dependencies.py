"""Tests for scheduler-level job dependencies (SLURM --dependency)."""

import pytest

from repro.cluster.builders import build_hpcqc_cluster
from repro.errors import JobRejectedError
from repro.scheduler.job import JobComponent, JobSpec, JobState
from repro.scheduler.scheduler import BatchScheduler


@pytest.fixture
def env(kernel):
    cluster = build_hpcqc_cluster(kernel, 8, ["d0"])
    return kernel, BatchScheduler(kernel, cluster)


def spec(name, duration=10.0, nodes=1, fail=False, **kwargs):
    if fail:
        def work(ctx):
            yield ctx.timeout(duration)
            raise RuntimeError("step failed")

        return JobSpec(
            name=name,
            components=[JobComponent("classical", nodes, 1000.0)],
            work=work,
            **kwargs,
        )
    return JobSpec(
        name=name,
        components=[JobComponent("classical", nodes, 1000.0)],
        duration=duration,
        **kwargs,
    )


class TestAfterOk:
    def test_dependent_waits_for_completion(self, env):
        kernel, scheduler = env
        first = scheduler.submit(spec("first", duration=50.0))
        second = scheduler.submit(
            spec("second", duration=10.0, after_ok=[first.id])
        )
        kernel.run(until=200.0)
        assert second.start_time == 50.0
        assert second.state == JobState.COMPLETED

    def test_dependent_does_not_hold_resources_while_waiting(self, env):
        kernel, scheduler = env
        first = scheduler.submit(spec("first", duration=50.0, nodes=1))
        scheduler.submit(
            spec("dep", duration=10.0, nodes=8, after_ok=[first.id])
        )
        kernel.run(until=10.0)
        # 7 nodes remain free: the dependent job holds nothing.
        assert (
            scheduler.cluster.partition("classical").available_count() == 7
        )

    def test_chain_of_dependencies(self, env):
        kernel, scheduler = env
        a = scheduler.submit(spec("a", duration=10.0))
        b = scheduler.submit(spec("b", duration=10.0, after_ok=[a.id]))
        c = scheduler.submit(spec("c", duration=10.0, after_ok=[b.id]))
        kernel.run(until=200.0)
        assert (a.end_time, b.start_time) == (10.0, 10.0)
        assert (b.end_time, c.start_time) == (20.0, 20.0)

    def test_failed_dependency_cancels_dependent(self, env):
        kernel, scheduler = env
        bad = scheduler.submit(spec("bad", duration=5.0, fail=True))
        dependent = scheduler.submit(
            spec("dependent", duration=10.0, after_ok=[bad.id])
        )
        kernel.run(until=100.0)
        assert bad.state == JobState.FAILED
        assert dependent.state == JobState.CANCELLED
        assert (
            dependent.spec.tags["cancel_reason"]
            == "dependency_never_satisfied"
        )

    def test_fan_in_dependencies(self, env):
        kernel, scheduler = env
        a = scheduler.submit(spec("a", duration=10.0))
        b = scheduler.submit(spec("b", duration=30.0))
        joined = scheduler.submit(
            spec("joined", duration=5.0, after_ok=[a.id, b.id])
        )
        kernel.run(until=200.0)
        assert joined.start_time == 30.0


class TestAfterAny:
    def test_runs_after_failure_too(self, env):
        kernel, scheduler = env
        bad = scheduler.submit(spec("bad", duration=5.0, fail=True))
        cleanup = scheduler.submit(
            spec("cleanup", duration=5.0, after_any=[bad.id])
        )
        kernel.run(until=100.0)
        assert bad.state == JobState.FAILED
        assert cleanup.state == JobState.COMPLETED
        assert cleanup.start_time == 5.0


class TestValidation:
    def test_unknown_dependency_rejected(self, env):
        _, scheduler = env
        with pytest.raises(JobRejectedError):
            scheduler.submit(spec("orphan", after_ok=["job-99999"]))


class TestSchedulerDrivenWorkflow:
    def test_dag_submitted_with_dependencies(self, env):
        from repro.scenarios import ScenarioSpec, TopologySpec, build
        from repro.strategies.workflow import (
            Workflow,
            WorkflowEngine,
            WorkflowStep,
        )

        environment = build(
            ScenarioSpec(topology=TopologySpec(classical_nodes=8))
        )

        def make_step(name, deps=(), duration=10.0):
            def factory():
                return JobSpec(
                    name=name,
                    components=[JobComponent("classical", 1, 100.0)],
                    duration=duration,
                )

            return WorkflowStep(name, factory, list(deps))

        workflow = Workflow(
            "sched-driven",
            [
                make_step("a"),
                make_step("b", deps=["a"], duration=20.0),
                make_step("c", deps=["a"]),
                make_step("d", deps=["b", "c"]),
            ],
        )
        engine = WorkflowEngine(
            environment, use_scheduler_dependencies=True
        )
        holder = {}

        def runner():
            jobs = yield from engine.execute(workflow)
            holder.update(jobs)

        environment.kernel.process(runner())
        environment.kernel.run()
        # All four steps were submitted immediately...
        assert all(job.submit_time == 0.0 for job in holder.values())
        # ...but ran in dependency order.
        assert holder["b"].start_time >= holder["a"].end_time
        assert holder["d"].start_time >= holder["b"].end_time
        assert holder["d"].state == JobState.COMPLETED
