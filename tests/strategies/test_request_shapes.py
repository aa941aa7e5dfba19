"""The resource requests each strategy submits to the batch scheduler.

Walltime safety factors and the quantum front-end size are fixed by
the strategy modules, not configurable; these tests pin the requests
they produce so a change to any of them shows up as a failure here
rather than as a silent shift in every experiment's queue waits.
"""

import pytest

from repro.quantum.circuit import Circuit
from repro.quantum.technology import SUPERCONDUCTING
from repro.scenarios import FleetSpec, ScenarioSpec, TopologySpec, build
from repro.strategies import coschedule, elastic, malleability, workflow
from repro.strategies.application import vqe_like
from repro.strategies.coschedule import CoScheduleStrategy
from repro.strategies.elastic import ElasticQPUStrategy
from repro.strategies.malleability import MalleableStrategy
from repro.strategies.workflow import WorkflowStrategy


def app_sc(iterations=2, classical_work=300.0, nodes=4):
    return vqe_like(
        iterations=iterations,
        classical_work=classical_work,
        circuit=Circuit(10, 100, geometry="g"),
        shots=1000,
        classical_nodes=nodes,
        min_classical_nodes=1,
    )


def make_env(nodes=16):
    return build(
        ScenarioSpec(
            topology=TopologySpec(classical_nodes=nodes),
            fleet=FleetSpec(technology=SUPERCONDUCTING.name),
        )
    )


def run_recording_requests(strategy, app):
    """Run ``app`` to completion; return its record, every submitted
    job and every component attached mid-run."""
    env = make_env()
    attached = []
    request_component = env.scheduler.request_component

    def recording_request_component(job, component):
        attached.append(component)
        return request_component(job, component)

    env.scheduler.request_component = recording_request_component
    run = strategy.launch(env, app)
    env.kernel.run(until=run.done)
    return run.record, list(env.scheduler.jobs_by_id.values()), attached


class TestDefaultWalltimes:
    def test_coschedule_requests_twice_the_ideal_makespan(self):
        app = app_sc()
        record, jobs, _ = run_recording_requests(CoScheduleStrategy(), app)
        expected = app.ideal_makespan(SUPERCONDUCTING) * 2.0
        assert coschedule.WALLTIME_SAFETY == 2.0
        assert record.details["walltime_s"] == pytest.approx(expected)
        [job] = jobs
        assert all(
            component.walltime == pytest.approx(expected)
            for component in job.spec.components
        )

    def test_elastic_covers_attach_overheads_three_times(self):
        app = app_sc()
        strategy = ElasticQPUStrategy(attach_overhead=2.0)
        record, _, attached = run_recording_requests(strategy, app)
        expected = (
            app.ideal_makespan(SUPERCONDUCTING)
            + app.quantum_phase_count * 2.0
        ) * 3.0
        assert elastic.WALLTIME_SAFETY == 3.0
        assert record.details["walltime_s"] == pytest.approx(expected)
        # Each attach is capped at the job's own walltime.
        assert attached
        assert all(
            component.walltime == pytest.approx(expected)
            for component in attached
        )

    def test_malleable_covers_two_resizes_per_quantum_phase(self):
        app = app_sc()
        strategy = MalleableStrategy(reconfiguration_cost=4.0)
        record, jobs, _ = run_recording_requests(strategy, app)
        expected = (
            app.ideal_makespan(SUPERCONDUCTING)
            + 2.0 * app.quantum_phase_count * 4.0
        ) * 3.0
        assert malleability.WALLTIME_SAFETY == 3.0
        assert record.details["walltime_s"] == pytest.approx(expected)
        [job] = jobs
        assert all(
            component.walltime == pytest.approx(expected)
            for component in job.spec.components
        )

    @pytest.mark.parametrize(
        "strategy_class",
        [CoScheduleStrategy, ElasticQPUStrategy, MalleableStrategy],
    )
    def test_explicit_walltime_is_requested_as_given(self, strategy_class):
        record, _, _ = run_recording_requests(
            strategy_class(walltime=5000.0), app_sc()
        )
        assert record.details["walltime_s"] == 5000.0


class TestQuantumFrontEnd:
    @pytest.mark.parametrize(
        "strategy",
        [
            CoScheduleStrategy(),
            ElasticQPUStrategy(),
            MalleableStrategy(),
            WorkflowStrategy(),
        ],
        ids=["coschedule", "elastic", "malleable", "workflow"],
    )
    def test_quantum_component_is_one_node_holding_one_qpu(self, strategy):
        record, jobs, attached = run_recording_requests(strategy, app_sc())
        assert record.details["final_state"] == "completed"
        quantum = [
            component
            for job in jobs
            for component in job.spec.components
            if component.partition == "quantum"
        ] + attached
        assert quantum
        for component in quantum:
            assert component.partition == "quantum"
            assert component.nodes == 1
            assert component.gres == {"qpu": 1}


class TestWorkflowStepWalltimes:
    @pytest.mark.parametrize(
        "estimate, expected",
        [(0.0, 60.0), (10.0, 60.0), (40.0, 60.0), (100.0, 150.0)],
    )
    def test_step_walltime_is_floored_safety_times_estimate(
        self, estimate, expected
    ):
        assert workflow.STEP_WALLTIME_SAFETY == 1.5
        assert workflow.MIN_STEP_WALLTIME == 60.0
        assert WorkflowStrategy()._step_walltime(estimate) == expected

    def test_classical_steps_request_their_phase_time_with_margin(self):
        app = app_sc(classical_work=400.0, nodes=4)
        _, jobs, _ = run_recording_requests(WorkflowStrategy(), app)
        classical_jobs = [
            job for job in jobs
            if job.spec.components[0].partition == "classical"
        ]
        classical_phases = [
            phase for phase in app.phases if not phase.is_quantum
        ]
        assert len(classical_jobs) == len(classical_phases)
        for job, phase in zip(classical_jobs, classical_phases):
            duration = app.classical_time(phase, 4)
            [component] = job.spec.components
            assert component.nodes == 4
            assert component.walltime == pytest.approx(
                max(duration * 1.5, 60.0)
            )
            assert job.end_time - job.start_time == pytest.approx(duration)
