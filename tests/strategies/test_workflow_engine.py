"""Tests for the generic workflow DAG engine."""

import pytest

from repro.errors import WorkflowError
from repro.scenarios import ScenarioSpec, TopologySpec, build
from repro.scheduler.job import JobComponent, JobSpec
from repro.strategies.workflow import Workflow, WorkflowEngine, WorkflowStep


def step(name, deps=(), nodes=1, duration=10.0, walltime=100.0):
    def factory():
        return JobSpec(
            name=name,
            components=[JobComponent("classical", nodes, walltime)],
            duration=duration,
        )

    return WorkflowStep(name, factory, list(deps))


class TestDagValidation:
    def test_duplicate_names_rejected(self):
        with pytest.raises(WorkflowError):
            Workflow("w", [step("a"), step("a")])

    def test_unknown_dependency_rejected(self):
        with pytest.raises(WorkflowError):
            Workflow("w", [step("a", deps=["ghost"])])

    def test_cycle_detected(self):
        with pytest.raises(WorkflowError, match="cycle"):
            Workflow(
                "w",
                [
                    step("a", deps=["b"]),
                    step("b", deps=["c"]),
                    step("c", deps=["a"]),
                ],
            )

    def test_self_cycle_detected(self):
        with pytest.raises(WorkflowError, match="cycle"):
            Workflow("w", [step("a", deps=["a"])])

    def test_topological_order_respects_deps(self):
        workflow = Workflow(
            "w",
            [
                step("c", deps=["a", "b"]),
                step("a"),
                step("b", deps=["a"]),
            ],
        )
        order = workflow.topological_order()
        assert order.index("a") < order.index("b") < order.index("c")

    def test_len(self):
        assert len(Workflow("w", [step("a"), step("b")])) == 2


class TestEngineExecution:
    def test_linear_chain_runs_sequentially(self):
        env = build(ScenarioSpec(topology=TopologySpec(classical_nodes=4)))
        workflow = Workflow(
            "chain",
            [
                step("s1", duration=10.0),
                step("s2", deps=["s1"], duration=10.0),
                step("s3", deps=["s2"], duration=10.0),
            ],
        )
        engine = WorkflowEngine(env)
        holder = {}

        def runner():
            jobs = yield from engine.execute(workflow)
            holder.update(jobs)

        env.kernel.process(runner())
        env.kernel.run()
        assert holder["s1"].end_time <= holder["s2"].start_time
        assert holder["s2"].end_time <= holder["s3"].start_time

    def test_independent_steps_run_in_parallel(self):
        env = build(ScenarioSpec(topology=TopologySpec(classical_nodes=4)))
        workflow = Workflow(
            "fanout",
            [
                step("root", duration=5.0),
                step("left", deps=["root"], duration=20.0),
                step("right", deps=["root"], duration=20.0),
            ],
        )
        engine = WorkflowEngine(env)
        holder = {}

        def runner():
            jobs = yield from engine.execute(workflow)
            holder.update(jobs)

        env.kernel.process(runner())
        env.kernel.run()
        assert holder["left"].start_time == holder["right"].start_time

    def test_failed_step_aborts_workflow(self):
        env = build(ScenarioSpec(topology=TopologySpec(classical_nodes=4)))

        def failing_factory():
            def work(ctx):
                yield ctx.timeout(1.0)
                raise RuntimeError("step exploded")

            return JobSpec(
                name="bad",
                components=[JobComponent("classical", 1, 100.0)],
                work=work,
            )

        workflow = Workflow(
            "failing",
            [
                WorkflowStep("bad", failing_factory),
                step("after", deps=["bad"]),
            ],
        )
        engine = WorkflowEngine(env)
        outcome = {}

        def runner():
            try:
                yield from engine.execute(workflow)
            except WorkflowError as error:
                outcome["error"] = str(error)

        env.kernel.process(runner())
        env.kernel.run()
        assert "failed" in outcome["error"]

    def test_diamond_dependency_joins(self):
        env = build(ScenarioSpec(topology=TopologySpec(classical_nodes=8)))
        workflow = Workflow(
            "diamond",
            [
                step("a", duration=5.0),
                step("b", deps=["a"], duration=10.0),
                step("c", deps=["a"], duration=30.0),
                step("d", deps=["b", "c"], duration=5.0),
            ],
        )
        engine = WorkflowEngine(env)
        holder = {}

        def runner():
            jobs = yield from engine.execute(workflow)
            holder.update(jobs)

        env.kernel.process(runner())
        env.kernel.run()
        # d starts only after the slower branch (c) completes.
        assert holder["d"].start_time >= holder["c"].end_time
