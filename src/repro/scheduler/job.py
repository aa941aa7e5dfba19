"""Job model: specifications, runtime state, and the execution context.

A :class:`JobSpec` mirrors what a SLURM batch script declares: one or
more *components* (a heterogeneous job — the paper's Listing 1 — has
two: classical nodes and a quantum gres), a walltime per component, a
user/account for accounting, and the *work* the job performs once its
resources are granted.

Work is either a fixed duration (classic rigid batch job) or a
generator function receiving a :class:`JobContext`, which is how the
strategy layer injects hybrid application behaviour (classical phases,
quantum kernel submissions, malleable resizes) into allocated jobs.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Generator, List, Optional

from repro.cluster.allocation import Allocation
from repro.errors import ConfigurationError, JobRejectedError
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.scheduler.scheduler import BatchScheduler
    from repro.sim.kernel import Kernel
    from repro.sim.process import Process

_job_counter = itertools.count(1)


class JobState(enum.Enum):
    """Lifecycle states, matching SLURM's main states."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    CANCELLED = "cancelled"
    TIMEOUT = "timeout"
    FAILED = "failed"
    NODE_FAIL = "node_fail"

    @property
    def is_terminal(self) -> bool:
        return self not in (JobState.PENDING, JobState.RUNNING)


@dataclass(frozen=True)
class JobComponent:
    """One resource bundle of a (possibly heterogeneous) job.

    Equivalent to one ``#SBATCH`` block of Listing 1: partition, node
    count, walltime and gres request.
    """

    partition: str
    nodes: int
    walltime: float
    gres: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.nodes <= 0:
            raise ConfigurationError("component node count must be positive")
        if self.walltime <= 0:
            raise ConfigurationError("component walltime must be positive")
        for gres_type, count in self.gres.items():
            if count <= 0:
                raise ConfigurationError(
                    f"gres {gres_type!r} count must be positive"
                )


WorkFunction = Callable[["JobContext"], Generator[Event, Any, Any]]


@dataclass
class JobSpec:
    """Everything a user submits: resources + work + identity.

    Exactly one of ``duration`` or ``work`` must be provided.
    ``duration`` models a rigid job that simply occupies its allocation;
    ``work`` is a generator function driving arbitrary in-job behaviour.
    """

    name: str
    components: List[JobComponent]
    user: str = "user"
    account: str = "default"
    duration: Optional[float] = None
    work: Optional[WorkFunction] = None
    qos_priority: float = 0.0
    #: Requeue the job if a node under it fails.
    requeue_on_failure: bool = False
    #: Job ids this job depends on (SLURM ``--dependency`` semantics).
    #: ``afterok`` ids must COMPLETE successfully before this job becomes
    #: eligible; ``afterany`` ids merely need to reach a terminal state.
    after_ok: List[str] = field(default_factory=list)
    after_any: List[str] = field(default_factory=list)
    #: Arbitrary annotations carried through to metrics (strategy name...).
    tags: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.components:
            raise ConfigurationError(f"job {self.name!r} has no components")
        if (self.duration is None) == (self.work is None):
            raise ConfigurationError(
                f"job {self.name!r}: exactly one of duration/work required"
            )
        if self.duration is not None and self.duration < 0:
            raise ConfigurationError("duration must be >= 0")

    @property
    def walltime_limit(self) -> float:
        """The job-level limit: the tightest component walltime.

        SLURM terminates the whole heterogeneous job when any component
        exceeds its limit, so the minimum governs the job's lifetime.
        """
        return min(component.walltime for component in self.components)

    def total_nodes(self) -> int:
        return sum(component.nodes for component in self.components)


class Job:
    """Runtime record of a submitted job.

    Fleet-sized workloads create many thousands of these, so the class
    is slotted; ``_worker`` is the scheduler-owned handle to the
    process driving the job's work.
    """

    __slots__ = (
        "spec",
        "id",
        "kernel",
        "state",
        "submit_time",
        "start_time",
        "end_time",
        "allocations",
        "started",
        "finished",
        "priority",
        "requeue_count",
        "_worker",
    )

    def __init__(self, spec: JobSpec, kernel: "Kernel") -> None:
        self.spec = spec
        self.id = f"job-{next(_job_counter)}"
        self.kernel = kernel
        self.state = JobState.PENDING
        self.submit_time: Optional[float] = None
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        self.allocations: List[Allocation] = []
        #: Fires (with the job) when the job starts running.
        self.started: Event = kernel.event()
        #: Fires (with the final state) when the job reaches a terminal state.
        self.finished: Event = kernel.event()
        #: Set by the scheduler: computed priority at last scheduling pass.
        self.priority: float = 0.0
        #: Number of times the job was requeued after node failures.
        self.requeue_count = 0
        #: Process driving the job's work while running (scheduler-owned).
        self._worker: Optional["Process"] = None

    # -- derived metrics -----------------------------------------------------------

    @property
    def wait_time(self) -> Optional[float]:
        """Queue wait (submit -> start), if the job has started."""
        if self.submit_time is None or self.start_time is None:
            return None
        return self.start_time - self.submit_time

    @property
    def run_time(self) -> Optional[float]:
        if self.start_time is None:
            return None
        end = self.end_time if self.end_time is not None else self.kernel.now
        return end - self.start_time

    @property
    def turnaround(self) -> Optional[float]:
        """Response time (submit -> terminal), if finished."""
        if self.submit_time is None or self.end_time is None:
            return None
        return self.end_time - self.submit_time

    def slowdown(self, minimum_runtime: float = 10.0) -> Optional[float]:
        """Bounded slowdown with runtime floor ``minimum_runtime``."""
        if self.turnaround is None or self.run_time is None:
            return None
        denominator = max(self.run_time, minimum_runtime)
        return max(1.0, self.turnaround / denominator)

    def allocation_for(self, partition: str) -> Allocation:
        """The job's allocation in ``partition`` (for hetjob components)."""
        for allocation in self.allocations:
            if allocation.partition_name == partition:
                return allocation
        raise JobRejectedError(
            f"job {self.id} holds no allocation in partition {partition!r}"
        )

    def __repr__(self) -> str:
        return f"<Job {self.id} {self.spec.name!r} {self.state.value}>"


class JobContext:
    """Handle given to a job's work function while it runs.

    Provides the kernel clock, the granted allocations (including any
    gres-bound device objects, e.g. QPUs), and — for malleable jobs —
    the resize API of the owning scheduler.
    """

    def __init__(
        self, kernel: "Kernel", job: Job, scheduler: "BatchScheduler"
    ) -> None:
        self.kernel = kernel
        self.job = job
        self.scheduler = scheduler

    @property
    def now(self) -> float:
        return self.kernel.now

    @property
    def allocations(self) -> List[Allocation]:
        return self.job.allocations

    def timeout(self, delay: float) -> Event:
        """Sleep for ``delay`` seconds of simulated time."""
        return self.kernel.timeout(delay)

    def nodes_in(self, partition: str) -> int:
        """Node count currently held in ``partition``."""
        return self.job.allocation_for(partition).node_count

    def gres_devices(self, gres_type: str = "qpu") -> List[Any]:
        """Device objects bound to the granted gres units."""
        devices: List[Any] = []
        for allocation in self.job.allocations:
            devices.extend(allocation.gres_devices(gres_type))
        return devices

    def first_qpu(self) -> Any:
        """Convenience accessor for the single-QPU case (Listing 1)."""
        devices = self.gres_devices("qpu")
        if not devices:
            raise JobRejectedError(
                f"job {self.job.id} holds no qpu gres device"
            )
        return devices[0]

    # -- malleability (delegates to the scheduler) ------------------------------

    def shrink(self, partition: str, release_count: int) -> List[str]:
        """Release ``release_count`` nodes from the job (immediate)."""
        return self.scheduler.shrink_job(self.job, partition, release_count)

    def grow(self, partition: str, count: int) -> Event:
        """Request ``count`` extra nodes; event fires when granted."""
        return self.scheduler.request_grow(self.job, partition, count)

    def attach_component(self, component: "JobComponent") -> Event:
        """Request a whole extra component (e.g. a QPU) mid-run.

        The event fires with the granted
        :class:`~repro.cluster.allocation.Allocation`.
        """
        return self.scheduler.request_component(self.job, component)

    def detach_component(self, partition: str) -> None:
        """Release the job's allocation in ``partition`` mid-run."""
        self.scheduler.release_component(self.job, partition)
