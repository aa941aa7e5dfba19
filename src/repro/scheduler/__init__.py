"""SLURM-like batch scheduler: jobs, priorities, backfill, accounting."""

from repro.scheduler.accounting import AccountingLedger
from repro.scheduler.backfill import (
    POLICIES,
    ConservativeBackfillPolicy,
    EasyBackfillPolicy,
    FIFOPolicy,
    SchedulingPolicy,
    TimelineCache,
    make_policy,
)
from repro.scheduler.job import (
    Job,
    JobComponent,
    JobContext,
    JobSpec,
    JobState,
)
from repro.scheduler.priority import MultifactorPriority, PriorityWeights
from repro.scheduler.scheduler import BatchScheduler

__all__ = [
    # Jobs
    "Job",
    "JobComponent",
    "JobContext",
    "JobSpec",
    "JobState",
    # Priority and accounting
    "AccountingLedger",
    "MultifactorPriority",
    "PriorityWeights",
    # Policies
    "ConservativeBackfillPolicy",
    "EasyBackfillPolicy",
    "FIFOPolicy",
    "POLICIES",
    "SchedulingPolicy",
    "TimelineCache",
    "make_policy",
    # Scheduler
    "BatchScheduler",
]
