"""Tests for job specs, runtime records and derived metrics."""

import pytest

from repro.errors import ConfigurationError, JobRejectedError
from repro.scheduler.job import Job, JobComponent, JobSpec, JobState


def simple_spec(**overrides):
    defaults = dict(
        name="test-job",
        components=[JobComponent("classical", 2, 100.0)],
        duration=10.0,
    )
    defaults.update(overrides)
    return JobSpec(**defaults)


class TestJobComponent:
    def test_valid(self):
        component = JobComponent("classical", 4, 3600.0, gres={"qpu": 1})
        assert component.nodes == 4
        assert component.gres == {"qpu": 1}

    def test_zero_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            JobComponent("classical", 0, 100.0)

    def test_zero_walltime_rejected(self):
        with pytest.raises(ConfigurationError):
            JobComponent("classical", 1, 0.0)

    def test_zero_gres_rejected(self):
        with pytest.raises(ConfigurationError):
            JobComponent("classical", 1, 100.0, gres={"qpu": 0})


class TestJobSpec:
    def test_needs_components(self):
        with pytest.raises(ConfigurationError):
            JobSpec(name="x", components=[], duration=1.0)

    def test_exactly_one_of_duration_or_work(self):
        with pytest.raises(ConfigurationError):
            JobSpec(
                name="both",
                components=[JobComponent("c", 1, 10.0)],
                duration=1.0,
                work=lambda ctx: iter(()),
            )
        with pytest.raises(ConfigurationError):
            JobSpec(name="neither", components=[JobComponent("c", 1, 10.0)])

    def test_negative_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            simple_spec(duration=-1.0)

    def test_walltime_limit_is_minimum(self):
        spec = simple_spec(
            components=[
                JobComponent("classical", 1, 100.0),
                JobComponent("quantum", 1, 50.0),
            ]
        )
        assert spec.walltime_limit == 50.0

    def test_total_nodes(self):
        spec = simple_spec(
            components=[
                JobComponent("classical", 10, 100.0),
                JobComponent("quantum", 2, 100.0),
            ]
        )
        assert spec.total_nodes() == 12


class TestJobMetrics:
    def test_ids_are_unique(self, kernel):
        a = Job(simple_spec(), kernel)
        b = Job(simple_spec(), kernel)
        assert a.id != b.id

    def test_wait_time_none_before_start(self, kernel):
        job = Job(simple_spec(), kernel)
        job.submit_time = 0.0
        assert job.wait_time is None

    def test_derived_times(self, kernel):
        job = Job(simple_spec(), kernel)
        job.submit_time = 10.0
        job.start_time = 25.0
        job.end_time = 125.0
        assert job.wait_time == 15.0
        assert job.run_time == 100.0
        assert job.turnaround == 115.0

    def test_bounded_slowdown(self, kernel):
        job = Job(simple_spec(), kernel)
        job.submit_time = 0.0
        job.start_time = 100.0
        job.end_time = 101.0  # 1 s runtime, 101 s turnaround
        # Floor of 10 s keeps the slowdown bounded.
        assert job.slowdown(minimum_runtime=10.0) == pytest.approx(10.1)

    def test_slowdown_never_below_one(self, kernel):
        job = Job(simple_spec(), kernel)
        job.submit_time = 0.0
        job.start_time = 0.0
        job.end_time = 5.0
        assert job.slowdown() == 1.0

    def test_allocation_lookup_missing_partition(self, kernel):
        job = Job(simple_spec(), kernel)
        with pytest.raises(JobRejectedError):
            job.allocation_for("quantum")

    def test_initial_state(self, kernel):
        job = Job(simple_spec(), kernel)
        assert job.state == JobState.PENDING
        assert not job.state.is_terminal

    def test_terminal_states(self):
        for state in (
            JobState.COMPLETED,
            JobState.CANCELLED,
            JobState.TIMEOUT,
            JobState.FAILED,
            JobState.NODE_FAIL,
        ):
            assert state.is_terminal
        assert not JobState.RUNNING.is_terminal
