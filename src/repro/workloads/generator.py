"""Trace submission: inject a workload trace into a live environment.

:func:`submit_trace` replays a (synthetic) SWF trace of rigid
classical jobs, creating the background queue contention that makes
per-step queue waits in the workflow strategy non-trivial (Fig 2's
downside).  One arrival process per trace submits the jobs: it
reserves each future job's heap slot and keeps only the next arrival
on the event heap, so a job the run never reaches costs a reserved
slot, not a suspended process.  Hybrid applications are launched by
:func:`repro.scenarios.build.run_campaign`.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterable, List, Optional

from repro.scheduler.job import Job, JobComponent, JobSpec
from repro.strategies.base import Environment
from repro.workloads.swf import TraceJob


#: Maps one trace job to its resource components; returning ``None``
#: drops the job (e.g. an oversize job under a ``drop`` mapping rule).
ComponentMapper = Callable[[TraceJob], Optional[List[JobComponent]]]

#: Maps one trace job to an in-job work generator function; returning
#: ``None`` keeps the default rigid occupy-for-runtime behaviour.  The
#: scenario layer's trace source uses this to make quantum-mapped jobs
#: dispatch their kernel payload through the facility's QPU fleet.
WorkMapper = Callable[[TraceJob], Optional[Callable]]


def submit_trace(
    env: Environment,
    jobs: Iterable[TraceJob],
    partition: str = "classical",
    components_for: Optional[ComponentMapper] = None,
    work_for: Optional[WorkMapper] = None,
) -> List[Job]:
    """Schedule the replay of ``jobs``: each is submitted at its trace
    submit time.  Returns the runtime :class:`Job` records (populated
    as the simulation advances).

    By default every job becomes one rigid component on ``partition``
    sized straight from the trace.  ``components_for`` overrides that
    mapping per job — the scenario layer's trace source uses it to
    clamp oversize jobs and to route a subset to the quantum partition
    as ``qpu`` gres requests; returning ``None`` drops the job.  The
    mapping runs here, at install, so a mapper that raises does so
    now.  ``work_for`` optionally supplies an in-job work generator for
    a job (e.g. fleet-routed kernel dispatch); jobs it declines stay
    rigid with the trace runtime as their duration.

    One arrival process replays the whole trace, and only its next
    arrival is on the event heap, however long the trace:

    >>> from repro.scenarios import ScenarioSpec, build
    >>> env = build(ScenarioSpec())
    >>> env.kernel.run(until=0.0)
    >>> trace = [
    ...     TraceJob(i, 60.0 * i, 30.0, 1, 60.0) for i in range(1, 101)
    ... ]
    >>> before = env.kernel.queued_event_count
    >>> jobs = submit_trace(env, trace)
    >>> env.kernel.run(until=0.0)
    >>> env.kernel.queued_event_count - before
    1
    >>> env.kernel.run(until=6000.0)
    >>> len(jobs), jobs[-1].submit_time
    (100, 6000.0)
    """
    submitted: List[Job] = []
    kernel = env.kernel

    def default_components(
        trace_job: TraceJob,
    ) -> Optional[List[JobComponent]]:
        return [
            JobComponent(
                partition,
                trace_job.nodes,
                trace_job.requested_walltime,
            )
        ]

    mapper = components_for or default_components
    mapped = []
    for trace_job in jobs:
        components = mapper(trace_job)
        if components is not None:
            mapped.append((trace_job, components))
    if not mapped:
        return submitted

    def submit(trace_job: TraceJob, components: List[JobComponent]) -> None:
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

    def arrivals():
        # Walk the trace in order, as one timeout per job created here
        # would: due jobs are submitted inline, every later one
        # reserves the heap slot its timeout would take.  Reserved
        # slots are then pushed one at a time, earliest first, so the
        # event order is that of the eager timeouts.
        pending = []
        for trace_job, components in mapped:
            delay = trace_job.submit_time - kernel.now
            if delay > 0:
                pending.append((kernel.reserve(delay), trace_job, components))
            else:
                submit(trace_job, components)
        pending.sort(key=itemgetter(0))
        for slot, trace_job, components in pending:
            yield kernel.timeout_at(slot)
            submit(trace_job, components)

    kernel.process(arrivals(), name="trace-arrivals")
    return submitted
