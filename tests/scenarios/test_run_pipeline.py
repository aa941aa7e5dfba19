"""The run pipeline: one loader, two ends.

``run_scenario`` drives a loaded facility to a horizon; ``run_campaign``
launches hybrid applications in one and runs until they complete.  Both
load it the same way: build, then the background, then the trace.
"""

import importlib

import numpy as np
import pytest

from repro.experiments.common import campaign_scenario, standard_hybrid_app
from repro.quantum.circuit import Circuit
from repro.quantum.technology import SUPERCONDUCTING
from repro.scenarios import (
    ScenarioSpec,
    TopologySpec,
    TraceJobSpec,
    TraceSpec,
    WorkloadSpec,
    run_campaign,
    run_scenario,
)
from repro.scheduler.job import JobState
from repro.strategies.application import vqe_like
from repro.strategies.coschedule import CoScheduleStrategy

# The package re-exports the ``build`` function under the module's name.
build_module = importlib.import_module("repro.scenarios.build")

#: Five inline trace jobs, all submitted well inside the run horizon.
TRACE = TraceSpec(
    jobs=tuple(
        TraceJobSpec(index, 60.0 * index, 120.0, 2, 240.0, user="tracer")
        for index in range(1, 6)
    )
)


def _small_apps(count, iterations=1):
    return [
        vqe_like(iterations, 50.0, Circuit(5, 10), classical_nodes=2)
        for _ in range(count)
    ]


def _trace_jobs(env):
    return [
        job
        for job in env.scheduler.finished_jobs
        + env.scheduler.running
        + env.scheduler.pending
        if job.spec.tags.get("source") == "trace"
    ]


class _SpyStrategy(CoScheduleStrategy):
    """Co-scheduling that records every app it is asked to launch."""

    def __init__(self):
        super().__init__()
        self.launched = []

    def launch(self, env, app):
        self.launched.append(app)
        return super().launch(env, app)


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

    def test_collects_all_records(self):
        records, _ = run_campaign(
            CoScheduleStrategy(),
            _small_apps(3, iterations=2),
            ScenarioSpec(topology=TopologySpec(classical_nodes=16)),
        )
        assert len(records) == 3
        assert all(record.end_time is not None for record in records)

    def test_staggered_submissions(self):
        records, _ = run_campaign(
            CoScheduleStrategy(),
            _small_apps(2),
            ScenarioSpec(topology=TopologySpec(classical_nodes=16)),
            submit_times=[100.0, 200.0],
        )
        assert records[0].submit_time == 100.0
        assert records[1].submit_time == 200.0

    def test_array_submit_times_accepted(self):
        records, _ = run_campaign(
            CoScheduleStrategy(),
            _small_apps(2),
            ScenarioSpec(topology=TopologySpec(classical_nodes=16)),
            submit_times=np.array([100.0, 200.0]),
        )
        assert [record.submit_time for record in records] == [100.0, 200.0]

    @pytest.mark.parametrize(
        "apps, submit_times",
        [(1, [1.0, 2.0]), (2, [])],
        ids=["mismatched", "empty"],
    )
    def test_bad_submit_times_rejected_before_anything_runs(
        self, apps, submit_times, monkeypatch
    ):
        def no_build(*args, **kwargs):
            pytest.fail("built a facility for a rejected campaign")

        monkeypatch.setattr(build_module, "build", no_build)
        strategy = _SpyStrategy()
        with pytest.raises(ValueError):
            run_campaign(
                strategy,
                _small_apps(apps),
                ScenarioSpec(),
                submit_times=submit_times,
            )
        assert strategy.launched == []

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
        assert _trace_jobs(env)


class TestCampaignTrace:
    """A campaign runs the scenario's trace, not only its background."""

    def test_inline_trace_jobs_submitted_and_completed(self):
        spec = ScenarioSpec(
            topology=TopologySpec(classical_nodes=16),
            workload=WorkloadSpec(horizon=3600.0, trace=TRACE),
        )
        [record], env = run_campaign(
            CoScheduleStrategy(), _small_apps(1), spec
        )
        assert record.end_time is not None
        env.kernel.run()  # let any trace job still running finish
        jobs = sorted(_trace_jobs(env), key=lambda job: job.submit_time)
        assert [(job.spec.name, job.submit_time) for job in jobs] == [
            (f"trace-{index}", 60.0 * index) for index in range(1, 6)
        ]
        assert all(job.state == JobState.COMPLETED for job in jobs)
        assert all(job.spec.user == "tracer" for job in jobs)

    def test_trace_compiled_to_the_run_horizon(self):
        # Jobs at 60..300 s; a 200 s workload horizon keeps three.
        spec = ScenarioSpec(
            topology=TopologySpec(classical_nodes=16),
            workload=WorkloadSpec(horizon=200.0, trace=TRACE),
        )
        _, env = run_campaign(CoScheduleStrategy(), _small_apps(1), spec)
        env.kernel.run()
        assert sorted(job.submit_time for job in _trace_jobs(env)) == [
            60.0, 120.0, 180.0,
        ]


class TestBothEnds:
    """Both ends install the same workload for one spec."""

    def _installed(self, monkeypatch):
        """Record every job list the loader's install steps return."""
        installed = {"background": [], "trace": []}
        for kind, name in (
            ("background", "install_background"),
            ("trace", "install_trace"),
        ):
            original = getattr(build_module, name)

            def spy(*args, _original=original, _kind=kind):
                jobs = _original(*args)
                installed[_kind].append(jobs)
                return jobs

            monkeypatch.setattr(build_module, name, spy)
        return installed

    def test_same_background_and_trace_up_to_the_horizon(
        self, monkeypatch
    ):
        horizon = 1800.0
        spec = ScenarioSpec(
            topology=TopologySpec(classical_nodes=16),
            workload=WorkloadSpec(
                background_rho=0.6, horizon=horizon, trace=TRACE
            ),
            seed=3,
        )
        installed = self._installed(monkeypatch)
        metrics = run_scenario(spec)
        _, env = run_campaign(CoScheduleStrategy(), _small_apps(1), spec)
        if env.kernel.now < horizon:
            env.kernel.run(until=horizon)

        def submitted(jobs):
            return [
                (job.spec.name, job.submit_time)
                for job in jobs
                if job.submit_time <= horizon
            ]

        scenario_background, campaign_background = installed["background"]
        scenario_trace, campaign_trace = installed["trace"]
        assert submitted(scenario_background)
        assert submitted(scenario_background) == submitted(
            campaign_background
        )
        assert submitted(scenario_trace) == submitted(campaign_trace)
        assert len(submitted(campaign_trace)) == len(TRACE.jobs)
        assert metrics["trace_jobs"] == len(TRACE.jobs)
