"""Equivalence suite: one lazy arrival process vs per-job replay.

:func:`~repro.workloads.generator.submit_trace` replays a trace through
a single arrival process that reserves each future job's heap slot and
pushes only the earliest one.  :func:`reference_submit_trace` ports the
original replay — one process, and so one pending timeout, per job —
and serves as the executable specification: for every job the two
must agree on ``(name, submit_time, start_time, end_time, state)``,
and the returned lists must be in the same order.
"""

import dataclasses
import doctest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.workloads.generator as generator
from repro.errors import ConfigurationError
from repro.scenarios import (
    PolicySpec,
    TraceSpec,
    build,
    get_scenario,
)
from repro.scenarios.build import trace_component_mapper, trace_kernel_worker
from repro.scheduler.job import JobComponent, JobSpec
from repro.workloads.generator import submit_trace
from repro.workloads.swf import TraceJob

# -- reference (port of the per-job replay) ----------------------------------


def reference_submit_trace(
    env, jobs, partition="classical", components_for=None, work_for=None
):
    """Per-job replay: every job gets its own process, which sleeps on
    an eagerly created timeout until the job's submit time."""
    submitted = []

    def default_components(trace_job):
        return [
            JobComponent(
                partition, trace_job.nodes, trace_job.requested_walltime
            )
        ]

    mapper = components_for or default_components

    def replay(trace_job, components):
        delay = trace_job.submit_time - env.kernel.now
        if delay > 0:
            yield env.kernel.timeout(delay)
        work = work_for(trace_job) if work_for is not None else None
        spec = JobSpec(
            name=f"trace-{trace_job.job_id}",
            components=components,
            user=trace_job.user,
            duration=None if work is not None else trace_job.runtime,
            work=work,
            tags={"source": "trace"},
        )
        submitted.append(env.scheduler.submit(spec))

    for trace_job in jobs:
        components = mapper(trace_job)
        if components is None:
            continue
        env.kernel.process(
            replay(trace_job, components), name=f"replay:{trace_job.job_id}"
        )
    return submitted


def fresh_key_submit_trace(env, jobs):
    """Negative control: one arrival process that creates each timeout
    lazily with a *fresh* sequence number instead of a reserved one."""
    submitted = []

    def arrivals():
        kernel = env.kernel
        for trace_job in sorted(jobs, key=lambda job: job.submit_time):
            delay = trace_job.submit_time - kernel.now
            if delay > 0:
                yield kernel.timeout(delay)
            spec = JobSpec(
                name=f"trace-{trace_job.job_id}",
                components=[
                    JobComponent(
                        "classical",
                        trace_job.nodes,
                        trace_job.requested_walltime,
                    )
                ],
                duration=trace_job.runtime,
            )
            submitted.append(env.scheduler.submit(spec))

    env.kernel.process(arrivals())
    return submitted


# -- harness -----------------------------------------------------------------

CYCLED = dataclasses.replace(
    get_scenario("baseline-32"), policy=PolicySpec(scheduling_cycle=30.0)
)


def _observe(jobs):
    return [
        (
            job.spec.name,
            job.submit_time,
            job.start_time,
            job.end_time,
            job.state,
        )
        for job in jobs
    ]


def _replay(install, spec, trace, until=None, install_at=None, **kwargs):
    """Build ``spec``, install ``trace`` with ``install`` (at
    ``install_at`` when given, from outside the run) and run."""
    env = build(spec, seed=1)
    if install_at is not None:
        env.kernel.run(until=install_at)
    jobs = install(env, trace, **kwargs)
    env.kernel.run(until=until)
    return _observe(jobs)


def _assert_same(spec, trace, **kwargs):
    new = _replay(submit_trace, spec, trace, **kwargs)
    reference = _replay(reference_submit_trace, spec, trace, **kwargs)
    assert new == reference
    return new


def _job(job_id, submit, runtime=20.0, nodes=2, walltime=None):
    return TraceJob(
        job_id, submit, runtime, nodes, walltime or 2.0 * runtime
    )


# -- the tie that makes reserved keys necessary ------------------------------


def test_tie_with_cycle_pass_keeps_reserved_order():
    """Job 3's arrival at 75 s ties with the completion-driven pass
    created at 45 s; its reserved slot (taken at install) sorts first,
    so it starts at 75 s, as under per-job replay.  A lazily created
    timeout with a fresh key sorts after the pass and starts at 105 s."""
    trace = [
        _job(1, 10.0, runtime=5.0),
        _job(2, 50.0, runtime=100.0),
        _job(3, 75.0, runtime=20.0),
    ]
    observed = _assert_same(CYCLED, trace, until=400.0)
    starts = {name: start for name, _, start, _, _ in observed}
    assert starts["trace-3"] == 75.0
    fresh = _replay(fresh_key_submit_trace, CYCLED, trace, until=400.0)
    assert {name: start for name, _, start, _, _ in fresh}["trace-3"] == 105.0


# -- trace shapes ------------------------------------------------------------


def test_unsorted_and_duplicate_submit_times():
    trace = [
        _job(1, 90.0),
        _job(2, 30.0, nodes=20),
        _job(3, 30.0, nodes=20),
        _job(4, 60.0),
        _job(5, 30.0),
        _job(6, 90.0, nodes=16),
        _job(7, 5.0, runtime=55.0),
    ]
    observed = _assert_same(CYCLED, trace)
    assert [name for name, *_ in observed] == [
        "trace-7", "trace-2", "trace-3", "trace-5",
        "trace-4", "trace-1", "trace-6",
    ]


def test_jobs_due_at_or_before_install_submit_inline():
    trace = [
        _job(1, 0.0),
        _job(2, 40.0),
        _job(3, -5.0),
        _job(4, 100.0),
        _job(5, 100.0, nodes=30),
    ]
    observed = _assert_same(CYCLED, trace, install_at=100.0)
    assert [name for name, *_ in observed][:4] == [
        "trace-1", "trace-2", "trace-3", "trace-4",
    ]
    assert all(submit == 100.0 for _, submit, *_ in observed)


@pytest.mark.parametrize("install_at", [0.0, 37.5, 100.0])
def test_installed_mid_run_from_outside(install_at):
    trace = [_job(i, 25.0 * i, runtime=40.0, nodes=12) for i in range(1, 9)]
    _assert_same(CYCLED, trace, install_at=install_at)


def test_installed_mid_run_from_a_process():
    """A process that installs the trace while the kernel is running,
    between other same-time events."""
    trace = [_job(i, 30.0 * i, runtime=45.0, nodes=10) for i in range(1, 8)]
    results = []
    for install in (submit_trace, reference_submit_trace):
        env = build(CYCLED, seed=1)
        holder = []

        def installer(env=env, install=install, holder=holder):
            yield env.kernel.timeout(60.0)
            holder.append(install(env, trace))

        def competitor(env=env):
            yield env.kernel.timeout(60.0)
            env.scheduler.submit(
                JobSpec(
                    name="competitor",
                    components=[JobComponent("classical", 16, 240.0)],
                    duration=120.0,
                )
            )

        env.kernel.process(installer())
        env.kernel.process(competitor())
        env.kernel.run(until=600.0)
        results.append(_observe(holder[0]))
    assert results[0] == results[1]
    assert len(results[0]) == len(trace)


def test_two_traces_interleave_like_per_job_replay():
    first = [_job(i, 20.0 * i, nodes=8) for i in range(1, 6)]
    second = [_job(100 + i, 20.0 * i, nodes=8) for i in range(1, 6)]
    results = []
    for install in (submit_trace, reference_submit_trace):
        env = build(CYCLED, seed=1)
        installed = [install(env, first), install(env, second)]
        env.kernel.run()
        results.append([_observe(jobs) for jobs in installed])
    assert results[0] == results[1]
    assert [len(jobs) for jobs in results[0]] == [5, 5]


def test_empty_trace_schedules_nothing():
    env = build(CYCLED, seed=1)
    before = env.kernel.queued_event_count
    assert submit_trace(env, []) == []
    dropped = submit_trace(
        env, [_job(1, 5.0)], components_for=lambda job: None
    )
    assert dropped == []
    assert env.kernel.queued_event_count == before


# -- mappers -----------------------------------------------------------------


def _trace_spec(**overrides):
    base = dict(
        path="sample-32n.swf", qpu_fraction=0.3, oversize="drop",
        max_nodes=4,
    )
    base.update(overrides)
    return TraceSpec(**base)


def test_mapper_dropped_and_work_for_jobs():
    """The scenario layer's mappers: oversize jobs dropped, a subset
    routed to the QPU fleet with an in-job work generator."""
    from repro.scenarios.build import compile_trace

    trace_spec = _trace_spec()
    trace = compile_trace(trace_spec, 3600.0)
    results = []
    for replay in (submit_trace, reference_submit_trace):
        env = build(CYCLED, seed=1)
        jobs = replay(
            env,
            trace,
            components_for=trace_component_mapper(env, trace_spec),
            work_for=trace_kernel_worker(env, trace_spec),
        )
        env.kernel.run(until=3600.0)
        results.append((_observe(jobs), env.fleet.total_routed))
    assert results[0] == results[1]
    observed, routed = results[0]
    assert len(observed) < len(trace)  # some jobs dropped
    assert routed > 0  # some jobs dispatched kernels through work_for


def test_oversize_error_raises_at_install():
    """Mapping stays eager: both replays raise before the run starts,
    and the arrival process is never created, so nothing is left
    scheduled."""
    trace_spec = _trace_spec(oversize="error", qpu_fraction=0.0, max_nodes=1)
    trace = [_job(1, 10.0, nodes=1), _job(2, 500.0, nodes=4)]
    for replay in (submit_trace, reference_submit_trace):
        env = build(CYCLED, seed=1)
        before = env.kernel.queued_event_count
        with pytest.raises(ConfigurationError, match="oversize='error'"):
            replay(
                env, trace,
                components_for=trace_component_mapper(env, trace_spec),
            )
        if replay is submit_trace:
            assert env.kernel.queued_event_count == before


# -- randomised traces -------------------------------------------------------

_TRACE_JOBS = st.lists(
    st.tuples(
        st.integers(min_value=-20, max_value=300),  # submit time
        st.integers(min_value=1, max_value=90),  # runtime
        st.integers(min_value=1, max_value=32),  # nodes
        st.integers(min_value=1, max_value=3),  # walltime factor
    ),
    min_size=1,
    max_size=25,
)


@given(
    rows=_TRACE_JOBS,
    cycle=st.sampled_from([0.0, 15.0, 30.0]),
    policy=st.sampled_from(["easy", "conservative", "fifo"]),
    install_at=st.sampled_from([None, 0.0, 45.0, 120.0]),
    until=st.sampled_from([None, 150.0, 400.0]),
)
@settings(max_examples=60, deadline=None)
def test_random_integer_traces_match_reference(
    rows, cycle, policy, install_at, until
):
    spec = dataclasses.replace(
        CYCLED, policy=PolicySpec(policy=policy, scheduling_cycle=cycle)
    )
    trace = [
        TraceJob(
            index + 1, float(submit), float(runtime), nodes,
            float(runtime * factor),
        )
        for index, (submit, runtime, nodes, factor) in enumerate(rows)
    ]
    if install_at is not None and until is not None and until < install_at:
        until = None
    _assert_same(spec, trace, until=until, install_at=install_at)


# -- documentation -----------------------------------------------------------


def test_submit_trace_docstring_example():
    result = doctest.testmod(generator, optionflags=doctest.ELLIPSIS)
    assert result.attempted > 0
    assert result.failed == 0
