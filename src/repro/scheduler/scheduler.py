"""The batch scheduler: SLURM-like, event-driven, policy-pluggable.

Responsibilities:

- accept :class:`~repro.scheduler.job.JobSpec` submissions (including
  heterogeneous jobs, which allocate all components atomically — the
  semantics of Listing 1);
- run a scheduling pass whenever state changes (submission, completion,
  resize), delegating start decisions to a
  :class:`~repro.scheduler.backfill.SchedulingPolicy`;
- start jobs: create allocations, spawn the work process, enforce
  walltime, release resources at the end, charge accounting;
- support *malleability*: live jobs may shrink (release nodes
  immediately) or request growth, which the scheduler grants ahead of
  starting new jobs;
- requeue jobs evicted by node failures when their spec asks for it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.errors import (
    AllocationError,
    JobRejectedError,
    MalleabilityError,
    SchedulingError,
)
from repro.scheduler.backfill import (
    EasyBackfillPolicy,
    SchedulingPolicy,
    TimelineCache,
)
from repro.scheduler.accounting import AccountingLedger
from repro.scheduler.job import Job, JobContext, JobSpec, JobState
from repro.scheduler.priority import MultifactorPriority
from repro.sim.events import Event, Interrupt
from repro.sim.kernel import Kernel
from repro.sim.monitor import SampleSeries


class GrowRequest:
    """A pending malleable-grow request."""

    def __init__(
        self, job: Job, partition: str, count: int, event: Event
    ) -> None:
        self.job = job
        self.partition = partition
        self.count = count
        self.event = event

    def __repr__(self) -> str:
        return f"<GrowRequest {self.job.id} +{self.count}@{self.partition}>"


class ComponentRequest:
    """A pending request to attach a whole component to a live job.

    This is the quantum-side counterpart of node malleability: an
    *elastic* hybrid job acquires its QPU component only around quantum
    phases and detaches it in between, so the scarce device never sits
    idle inside a long-lived allocation.
    """

    def __init__(self, job: Job, component, event: Event) -> None:
        self.job = job
        self.component = component
        self.event = event

    def __repr__(self) -> str:
        return (
            f"<ComponentRequest {self.job.id} "
            f"{self.component.partition}x{self.component.nodes}>"
        )


class BatchScheduler:
    """Event-driven batch scheduler over a :class:`Cluster`.

    Parameters
    ----------
    policy:
        Start-decision policy (default EASY backfill, the most common
        production configuration).
    priority:
        Multifactor priority engine; defaults to FIFO-like (age only).
    ledger:
        Accounting ledger charged on job completion.
    cycle_time:
        Scheduling latency: seconds between a state change and the
        scheduling pass that reacts to it (SLURM's sched/backfill
        interval).  0 (default) schedules instantaneously; production
        systems run 10-60 s cycles, which is what makes per-step
        queueing expensive for second-scale steps.
    incremental_timelines:
        When True (default), attach a
        :class:`~repro.scheduler.backfill.TimelineCache` to the policy
        so successive scheduling passes reuse the previous availability
        timeline, applying only the allocation deltas since the last
        pass instead of rebuilding from every active allocation.
    timeline_debug:
        When True (default: the ``REPRO_TIMELINE_DEBUG`` environment
        variable), every incremental timeline is cross-checked against
        a from-scratch rebuild and divergence raises.
    """

    def __init__(
        self,
        kernel: Kernel,
        cluster: Cluster,
        policy: Optional[SchedulingPolicy] = None,
        priority: Optional[MultifactorPriority] = None,
        ledger: Optional[AccountingLedger] = None,
        cycle_time: float = 0.0,
        incremental_timelines: bool = True,
        timeline_debug: Optional[bool] = None,
    ) -> None:
        self.kernel = kernel
        self.cluster = cluster
        self.policy = policy or EasyBackfillPolicy()
        self.ledger = ledger or AccountingLedger()
        self.priority = priority or MultifactorPriority(
            total_nodes=max(cluster.total_nodes(), 1), ledger=self.ledger
        )
        if cycle_time < 0:
            raise SchedulingError("cycle_time must be >= 0")
        self.cycle_time = cycle_time
        #: Incremental availability-timeline cache shared with the
        #: policy; ``None`` when ``incremental_timelines`` is off.
        self.timeline_cache: Optional[TimelineCache] = None
        if incremental_timelines:
            self.timeline_cache = TimelineCache(
                cluster, debug=timeline_debug
            )
            self.policy.timeline_cache = self.timeline_cache

        self.pending: List[Job] = []
        self.running: List[Job] = []
        self.finished_jobs: List[Job] = []
        self.grow_requests: List[GrowRequest] = []
        self.component_requests: List[ComponentRequest] = []
        self.jobs_by_id: Dict[str, Job] = {}

        #: Per-job queue-wait observations (seconds).
        self.wait_times = SampleSeries("scheduler:wait")
        #: Observers called with each job reaching a terminal state.
        self.completion_listeners: List[Callable[[Job], None]] = []

        self._wakeup: Event = kernel.event()
        self._submit_counter = 0
        self._submit_order: Dict[str, int] = {}
        kernel.process(self._loop(), name="scheduler")

    # -- public API ----------------------------------------------------------------

    def submit(self, spec: JobSpec) -> Job:
        """Submit a job; returns its runtime record immediately."""
        self._validate(spec)
        job = Job(spec, self.kernel)
        job.submit_time = self.kernel.now
        self._submit_counter += 1
        self._submit_order[job.id] = self._submit_counter
        self.pending.append(job)
        self.jobs_by_id[job.id] = job
        self._kick()
        return job

    def close(self) -> None:
        """Detach this scheduler's timeline cache from the cluster.

        Call when discarding a scheduler while keeping its cluster
        alive (e.g. a policy sweep re-using one cluster): otherwise the
        cache stays subscribed to the cluster's allocation feed and
        keeps doing timeline maintenance for a dead scheduler.
        """
        if self.timeline_cache is not None:
            self.timeline_cache.close()
            if self.policy.timeline_cache is self.timeline_cache:
                self.policy.timeline_cache = None
            self.timeline_cache = None

    def cancel(self, job: Job) -> None:
        """Cancel a pending or running job."""
        if job.state == JobState.PENDING:
            self.pending.remove(job)
            self._finalise(job, JobState.CANCELLED)
        elif job.state == JobState.RUNNING:
            self._kill(job, JobState.CANCELLED)
        # Terminal jobs: no-op.

    def submit_and_wait(self, spec: JobSpec):
        """Generator helper: submit and wait for terminal state.

        Use as ``state = yield from scheduler.submit_and_wait(spec)``.
        """
        job = self.submit(spec)
        yield job.finished
        return job

    @property
    def queue_depth(self) -> int:
        return len(self.pending)

    # -- malleability API -------------------------------------------------------------

    def shrink_job(
        self, job: Job, partition: str, release_count: int
    ) -> List[str]:
        """Release ``release_count`` nodes of ``job`` in ``partition``.

        Returns the released node names.  The freed nodes become
        immediately available and trigger a scheduling pass.
        """
        if job.state != JobState.RUNNING:
            raise MalleabilityError(
                f"cannot shrink {job.id}: not running ({job.state.value})"
            )
        allocation = job.allocation_for(partition)
        if release_count >= allocation.node_count:
            raise MalleabilityError(
                f"shrink would leave job {job.id} with no node in "
                f"{partition!r} (has {allocation.node_count}, "
                f"releasing {release_count})"
            )
        released = self.cluster.shrink(allocation, release_count)
        self._kick()
        return [node.name for node in released]

    def request_grow(self, job: Job, partition: str, count: int) -> Event:
        """Ask for ``count`` extra nodes; the event fires when granted.

        Grants happen at the start of each scheduling pass, ahead of
        queued jobs.
        """
        if job.state != JobState.RUNNING:
            raise MalleabilityError(
                f"cannot grow {job.id}: not running ({job.state.value})"
            )
        if count <= 0:
            raise MalleabilityError("grow count must be positive")
        event = self.kernel.event()
        self.grow_requests.append(GrowRequest(job, partition, count, event))
        self._kick()
        return event

    # -- elastic components (quantum-side malleability) -------------------------

    def request_component(self, job: Job, component) -> Event:
        """Attach ``component`` to a running job; fires with the
        :class:`~repro.cluster.allocation.Allocation` once granted.

        The request is served in scheduling passes right after malleable
        grows, ahead of new jobs.
        """
        if job.state != JobState.RUNNING:
            raise MalleabilityError(
                f"cannot attach component to {job.id}: not running "
                f"({job.state.value})"
            )
        partition = self.cluster.partition(component.partition)
        if component.nodes > partition.node_count:
            raise JobRejectedError(
                f"component exceeds partition {partition.name!r} size"
            )
        event = self.kernel.event()
        self.component_requests.append(
            ComponentRequest(job, component, event)
        )
        self._kick()
        return event

    def release_component(self, job: Job, partition: str) -> None:
        """Detach and free the job's allocation in ``partition``."""
        if job.state != JobState.RUNNING:
            raise MalleabilityError(
                f"cannot detach component from {job.id}: not running"
            )
        allocation = job.allocation_for(partition)
        self.cluster.release(allocation)
        job.allocations.remove(allocation)
        self._kick()

    def _serve_component_requests(self) -> None:
        remaining: List[ComponentRequest] = []
        for request in self.component_requests:
            if request.job.state != JobState.RUNNING:
                request.event.fail(
                    MalleabilityError(
                        f"job {request.job.id} left RUNNING before the "
                        "component grant"
                    )
                )
                request.event.defuse()
                continue
            component = request.component
            try:
                allocation = self.cluster.allocate(
                    request.job.id,
                    component.partition,
                    component.nodes,
                    gres_request=component.gres,
                    walltime=component.walltime,
                )
            except AllocationError:
                remaining.append(request)
                continue
            request.job.allocations.append(allocation)
            request.event.succeed(allocation)
        self.component_requests = remaining

    # -- failure handling ----------------------------------------------------------------

    def on_node_failure(self, node: Node, evicted_job_id: Optional[str]) -> None:
        """Callback for :class:`repro.cluster.failures.FailureInjector`."""
        if evicted_job_id is None:
            self._kick()
            return
        job = self.jobs_by_id.get(evicted_job_id)
        if job is None or job.state != JobState.RUNNING:
            self._kick()
            return
        requeue = job.spec.requeue_on_failure
        self._kill(job, JobState.NODE_FAIL, failed_node=node)
        if requeue:
            clone = Job(job.spec, self.kernel)
            clone.submit_time = self.kernel.now
            clone.requeue_count = job.requeue_count + 1
            self._submit_counter += 1
            self._submit_order[clone.id] = self._submit_counter
            self.pending.append(clone)
            self.jobs_by_id[clone.id] = clone
        self._kick()

    # -- internals -----------------------------------------------------------------------

    def _validate(self, spec: JobSpec) -> None:
        for dep_id in [*spec.after_ok, *spec.after_any]:
            if dep_id not in self.jobs_by_id:
                raise JobRejectedError(
                    f"job {spec.name!r}: unknown dependency {dep_id!r}"
                )
        for component in spec.components:
            partition = self.cluster.partition(component.partition)
            if component.nodes > partition.node_count:
                raise JobRejectedError(
                    f"job {spec.name!r}: {component.nodes} nodes exceed "
                    f"partition {partition.name!r} size {partition.node_count}"
                )
            if (
                partition.max_walltime is not None
                and component.walltime > partition.max_walltime
            ):
                raise JobRejectedError(
                    f"job {spec.name!r}: walltime {component.walltime} "
                    f"exceeds partition limit {partition.max_walltime}"
                )
            for gres_type, count in component.gres.items():
                if count > partition.gres_capacity(gres_type):
                    raise JobRejectedError(
                        f"job {spec.name!r}: gres {gres_type}:{count} "
                        f"exceeds partition capacity "
                        f"{partition.gres_capacity(gres_type)}"
                    )

    def _kick(self) -> None:
        """Request a scheduling pass (coalesces same-instant kicks)."""
        if not self._wakeup.triggered:
            self._wakeup.succeed()

    def _loop(self):
        while True:
            yield self._wakeup
            if self.cycle_time > 0:
                # Batch state changes arriving within one cycle; the
                # pass happens at the end of the cycle, as on systems
                # with a periodic scheduler.
                yield self.kernel.timeout(self.cycle_time)
            self._wakeup = self.kernel.event()
            self._pass()

    def _pass(self) -> None:
        # Running jobs' grow and attach requests go ahead of new jobs.
        self._serve_grow_requests()
        self._serve_component_requests()
        self._cancel_unsatisfiable_dependents()
        eligible = [
            job for job in self.pending if self._dependencies_met(job)
        ]
        if eligible:
            now = self.kernel.now
            for job in eligible:
                job.priority = self.priority.compute(job, now)
            ordered = sorted(
                eligible,
                key=lambda j: (-j.priority, self._submit_order[j.id]),
            )
            to_start = self.policy.select(ordered, self.cluster, now)
            for job in to_start:
                self._try_start(job)

    # -- dependency handling -------------------------------------------------

    def _dependencies_met(self, job: Job) -> bool:
        for dep_id in job.spec.after_ok:
            dep = self.jobs_by_id[dep_id]
            if dep.state != JobState.COMPLETED:
                return False
        for dep_id in job.spec.after_any:
            dep = self.jobs_by_id[dep_id]
            if not dep.state.is_terminal:
                return False
        return True

    def _dependency_failed(self, job: Job) -> bool:
        """An ``afterok`` dependency terminated without completing."""
        return any(
            self.jobs_by_id[dep_id].state.is_terminal
            and self.jobs_by_id[dep_id].state != JobState.COMPLETED
            for dep_id in job.spec.after_ok
        )

    def _cancel_unsatisfiable_dependents(self) -> None:
        """SLURM's DependencyNeverSatisfied: cancel dead-end jobs."""
        for job in list(self.pending):
            if self._dependency_failed(job):
                self.pending.remove(job)
                job.spec.tags["cancel_reason"] = (
                    "dependency_never_satisfied"
                )
                self._finalise(job, JobState.CANCELLED)

    def _serve_grow_requests(self) -> None:
        remaining: List[GrowRequest] = []
        for request in self.grow_requests:
            if request.job.state != JobState.RUNNING:
                request.event.fail(
                    MalleabilityError(
                        f"job {request.job.id} left RUNNING before grow grant"
                    )
                )
                request.event.defuse()
                continue
            try:
                allocation = request.job.allocation_for(request.partition)
                nodes = self.cluster.grow(allocation, request.count)
            except (AllocationError, JobRejectedError):
                remaining.append(request)
                continue
            request.event.succeed([node.name for node in nodes])
        self.grow_requests = remaining

    def _try_start(self, job: Job) -> None:
        """Allocate every component atomically and launch the job."""
        allocations = []
        try:
            for component in job.spec.components:
                allocations.append(
                    self.cluster.allocate(
                        job.id,
                        component.partition,
                        component.nodes,
                        gres_request=component.gres,
                        walltime=component.walltime,
                    )
                )
        except AllocationError:
            # Count-based policy feasibility can diverge from actual node
            # picking (e.g. gres packing): roll back and leave pending.
            for allocation in allocations:
                self.cluster.release(allocation)
            return

        self.pending.remove(job)
        self.running.append(job)
        job.state = JobState.RUNNING
        job.start_time = self.kernel.now
        job.allocations = allocations
        assert job.submit_time is not None
        self.wait_times.record(job.start_time - job.submit_time)
        job.started.succeed(job)
        self.kernel.process(self._run_job(job), name=f"run:{job.id}")

    def _run_job(self, job: Job):
        """Drive one running job: work + walltime enforcement."""
        limit = job.spec.walltime_limit
        context = JobContext(self.kernel, job, self)
        if job.spec.work is not None:
            worker = self.kernel.process(
                job.spec.work(context), name=f"work:{job.id}"
            )
        else:
            assert job.spec.duration is not None
            worker = self.kernel.process(
                self._sleep_work(job.spec.duration), name=f"work:{job.id}"
            )
        job._worker = worker
        deadline = self.kernel.timeout(limit)
        try:
            outcome = yield self.kernel.any_of([worker, deadline])
        except BaseException:
            # The worker crashed (its failure propagates through the
            # condition).  If the job was already killed externally the
            # unwind is expected; otherwise record the failure.
            if job.state == JobState.RUNNING:
                self._release_and_finalise(job, JobState.FAILED)
            return

        if job.state != JobState.RUNNING:
            # Killed externally (cancel / node failure) while we waited.
            return
        if worker in outcome:
            self._release_and_finalise(job, JobState.COMPLETED)
        else:
            # Walltime exceeded: interrupt the work, then clean up.
            if worker.is_alive:
                worker.interrupt("walltime")
                try:
                    yield worker  # wait for the generator to unwind
                except BaseException:
                    pass
            self._release_and_finalise(job, JobState.TIMEOUT)

    def _sleep_work(self, duration: float):
        try:
            yield self.kernel.timeout(duration)
        except Interrupt:
            pass

    def _kill(self, job: Job, state: JobState,
              failed_node: Optional[Node] = None) -> None:
        """Forcibly terminate a running job."""
        worker = job._worker
        if worker is not None and worker.is_alive:
            worker.interrupt("killed")
        # Node-failure eviction already freed the failed node; release
        # the rest of the allocation.
        for allocation in job.allocations:
            if allocation.released:
                continue
            if failed_node is not None and failed_node in allocation.nodes:
                allocation.remove_nodes([failed_node])
            self.cluster.release(allocation)
        self._finalise_running(job, state)

    def _release_and_finalise(self, job: Job, state: JobState) -> None:
        for allocation in job.allocations:
            if not allocation.released:
                self.cluster.release(allocation)
        self._finalise_running(job, state)

    def _finalise_running(self, job: Job, state: JobState) -> None:
        if job in self.running:
            self.running.remove(job)
        self._charge(job)
        self._finalise(job, state)
        self._kick()

    def _finalise(self, job: Job, state: JobState) -> None:
        job.state = state
        job.end_time = self.kernel.now
        self.finished_jobs.append(job)
        job.finished.succeed(state)
        for listener in self.completion_listeners:
            listener(job)
        # Dependents may have become eligible (or unsatisfiable).
        self._kick()

    def _charge(self, job: Job) -> None:
        """Charge node/gres usage for the job's lifetime to the ledger."""
        if job.start_time is None:
            return
        elapsed = self.kernel.now - job.start_time
        node_seconds = 0.0
        gres_seconds: Dict[str, float] = {}
        for allocation in job.allocations:
            node_seconds += allocation.node_count * elapsed
            for gres_type, count in allocation.gres_counts().items():
                gres_seconds[gres_type] = (
                    gres_seconds.get(gres_type, 0.0) + count * elapsed
                )
        self.ledger.charge(
            job.spec.user,
            job.spec.account,
            self.kernel.now,
            node_seconds,
            gres_seconds,
        )

    def __repr__(self) -> str:
        return (
            f"<BatchScheduler policy={self.policy.name} "
            f"pending={len(self.pending)} running={len(self.running)} "
            f"finished={len(self.finished_jobs)}>"
        )
