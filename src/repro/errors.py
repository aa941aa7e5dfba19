"""Exception hierarchy shared across the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so
that callers can catch library failures with a single ``except`` clause
while still being able to distinguish the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SimulationError(ReproError):
    """An inconsistency inside the discrete-event simulation kernel."""


class SchedulingError(ReproError):
    """A batch-scheduler invariant was violated (bad job spec, etc.)."""


class AllocationError(SchedulingError):
    """A resource allocation could not be created or released."""


class JobRejectedError(SchedulingError):
    """A job specification was rejected at submission time."""


class QuantumDeviceError(ReproError):
    """A quantum device model was used inconsistently."""


class WorkflowError(ReproError):
    """A workflow DAG was malformed or executed inconsistently."""


class MalleabilityError(ReproError):
    """A malleable job violated the resize-negotiation protocol."""


class WorkloadError(ReproError):
    """A workload description or trace could not be generated/parsed."""


class ConfigurationError(ReproError):
    """An experiment or component was configured with invalid values."""


class SweepError(ReproError):
    """The sweep execution engine could not complete a campaign."""


class PointFailedError(SweepError):
    """A sweep point exhausted its failure policy (``on_error="raise"``).

    Carries the point's terminal :class:`PointOutcome` (when available)
    as :attr:`outcome`, so callers can inspect status, attempt count
    and the recorded error text without parsing the message.
    """

    def __init__(self, message: str, outcome=None) -> None:
        super().__init__(message)
        self.outcome = outcome


class ChaosError(ReproError):
    """A deterministic fault injected by the chaos harness.

    Raised (never caught) by :class:`repro.experiments.resilience.
    ChaosSpec` inside a worker, so recovery paths are exercised by a
    recognisable, picklable exception type.
    """


class StoreError(ReproError):
    """The durable result store could not complete an operation."""


class StoreLockedError(StoreError):
    """Another live process holds the store's exclusive writer lock.

    Two writers on one store would interleave run and stage records and
    corrupt resume state, so the second one fails fast instead; the run
    and stage journals surface the same error on ``acquire()``.  The
    lock is ``flock``-based: the kernel releases it when its holder
    dies, so a SIGKILL'd writer never leaves a stale lock behind.
    """


class UnknownSubmissionError(StoreError):
    """A submission id does not exist in the store.

    Distinguished from the base :class:`StoreError` so the HTTP
    service can map it to a 404 instead of a generic 500 — existing
    callers catching :class:`StoreError` keep working unchanged.
    """


class LeaseError(StoreError):
    """A submission lease operation violated the claim protocol.

    Raised when a worker tries to execute or release a submission it
    does not currently hold — the fencing that keeps a worker whose
    lease expired (and was re-claimed by a live peer) from flipping
    the submission's terminal state twice.
    """


class LeaseLostError(LeaseError):
    """The worker's lease expired mid-run and another claim fenced it.

    The in-flight sweep is aborted after its current point commits;
    every committed point stays committed, and whichever worker now
    holds the lease resumes with only the uncommitted remainder.
    """


class WorkerDrainError(ReproError):
    """A worker was asked to drain while a submission was in flight.

    Control-flow exception: the worker loop raises it from the sweep's
    ``on_outcome`` hook (after the current point committed), releases
    the lease back to ``pending`` and exits cleanly — the submission
    is picked up by the next worker with zero committed-point loss.
    """


class ServiceError(ReproError):
    """The campaign service (HTTP layer or worker pool) failed."""


class StoreCorruptError(StoreError):
    """A store file failed validation and was quarantined.

    Raised after the offending file (SQLite database or npz metric
    shard) has been renamed aside with a ``.corrupt`` suffix, so a
    reopen starts clean instead of crashing on (or silently trusting)
    mangled bytes.
    """


class StoreSchemaError(StoreError):
    """The store's schema version is newer than this code understands.

    Unlike corruption this is *not* quarantined: the data is fine,
    the code is old.  Upgrade the library or point it at a different
    store directory.
    """


class CampaignError(ReproError):
    """A campaign DAG could not run to completion.

    Raised when a stage exhausts its failure policy under
    ``on_error="raise"``, or when the campaign engine itself hits an
    unrecoverable condition.  Carries the terminal
    :class:`~repro.campaigns.journal.StageOutcome` (when available) as
    :attr:`outcome`.
    """

    def __init__(self, message: str, outcome=None) -> None:
        super().__init__(message)
        self.outcome = outcome
