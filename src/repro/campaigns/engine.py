"""The campaign engine: resilient DAG execution with durable resume.

:class:`CampaignEngine` walks a :class:`~repro.campaigns.spec.
CampaignSpec`'s DAG in deterministic topological order, executing each
stage through a :class:`~repro.experiments.pool.PoolSupervisor` — the
one sweeps use — under the stage's own
:class:`~repro.experiments.resilience.FailurePolicy`:

- a failing attempt retries with deterministic, per-stage-jittered
  backoff;
- an exhausted policy under ``on_error="raise"`` aborts the campaign
  with :class:`~repro.errors.CampaignError`;
- under ``on_error="collect"`` the stage is marked failed and only its
  downstream cone is skipped — independent branches keep running;
- every terminal outcome, and before it each completed stage's value,
  is committed to the campaign's result store the moment it exists —
  so :meth:`CampaignEngine.run` with ``resume=True`` after a SIGKILL
  replays completed stages from the store (zero re-execution, journal-
  asserted by the crash suite) and re-enters a half-done sweep stage
  through that stage's own point-level journal;
- stage-granular :class:`~repro.experiments.resilience.ChaosSpec`
  actions are injected orchestrator-side at each stage boundary, so a
  planned ``die`` is a whole-campaign SIGKILL at exactly that
  boundary.

Stage seeds derive from the campaign seed and stage *name* only
(:func:`stage_seed`), and scheduling order is a pure function of the
spec — so the final :meth:`CampaignResult.canonical` payload is
byte-identical across backends, worker counts, crash/resume cycles and
chaos plans.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.campaigns.journal import STATUS_SKIPPED, StageOutcome
from repro.campaigns.spec import CampaignSpec, StageSpec, load_campaign
from repro.campaigns.steps import StageContext, resolve_step
from repro.errors import CampaignError, ConfigurationError
from repro.experiments.pool import PoolSupervisor
from repro.experiments.resilience import (
    STATUS_CRASHED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMED_OUT,
    ChaosSpec,
    FailurePolicy,
)
from repro.experiments.sweep import _default_code_version, canonical_bytes
from repro.sim.rng import derive_seed

if TYPE_CHECKING:
    from repro.store.campaign import StoreCampaignJournal


def _execute_stage(step_name: str, ctx: StageContext) -> Any:
    """Run one stage's step (in-process or inside a pool worker).

    Module-level so pool workers can resolve it by reference; the step
    itself is re-resolved from the registry on the worker side, which
    keeps :class:`StageContext` (plain data) the only thing pickled.
    """
    return resolve_step(step_name)(ctx)


def stage_seed(campaign_seed: int, campaign: str, stage: str) -> int:
    """The derived seed one stage runs under.

    A pure function of (campaign seed, campaign name, stage name) —
    independent of execution order, backend, retries, and chaos — so
    every attempt of a stage, in any process, computes on identical
    randomness.

    >>> stage_seed(7, "demo", "grid") == stage_seed(7, "demo", "grid")
    True
    >>> stage_seed(7, "demo", "grid") == stage_seed(7, "demo", "report")
    False
    """
    return derive_seed(campaign_seed, f"campaign:{campaign}:{stage}")


def result_digest(value: Any) -> str:
    """Digest binding a journaled stage to its persisted value."""
    return hashlib.sha256(canonical_bytes(value)).hexdigest()[:16]


@dataclass
class CampaignResult:
    """Everything one campaign run produced."""

    spec: CampaignSpec
    #: Stage name -> terminal outcome, for every stage in the spec.
    outcomes: Dict[str, StageOutcome]
    #: Stage name -> value, for stages that completed ok.
    values: Dict[str, Any]
    #: Deterministic topological order the stages were considered in.
    order: List[str]
    backend: str = "serial"
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes.values())

    def counts(self) -> Dict[str, int]:
        """Status -> stage count (for status lines and tables)."""
        counts: Dict[str, int] = {}
        for outcome in self.outcomes.values():
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return counts

    def resumed_stages(self) -> List[str]:
        """Stages replayed from the journal instead of executed."""
        return [
            name
            for name in self.order
            if self.outcomes[name].resumed
        ]

    def canonical(self) -> Dict[str, Any]:
        """The byte-identity payload: statuses and values only.

        Deliberately excludes timings, attempt counts and resume
        markers — everything that may legitimately differ between an
        uninterrupted run and a crash/resume cycle.  Two runs of the
        same spec are equivalent iff their canonical payloads (and
        hence :meth:`canonical_digest`) are byte-identical.
        """
        return {
            "campaign": self.spec.name,
            "seed": self.spec.seed,
            "stages": {
                name: {
                    "status": self.outcomes[name].status,
                    "value": self.values.get(name),
                }
                for name in self.order
            },
        }

    def canonical_digest(self) -> str:
        return hashlib.sha256(
            canonical_bytes(self.canonical())
        ).hexdigest()


@dataclass
class _StageState:
    spec: StageSpec
    policy: FailurePolicy
    attempts: int = 0
    failures: int = 0
    last_error: Optional[str] = None
    last_traceback: Optional[str] = None
    last_status: str = STATUS_FAILED
    attempt_seconds: List[float] = field(default_factory=list)
    inflight: bool = False

    def outcome(self, status: str, **extra: Any) -> StageOutcome:
        return StageOutcome(
            stage=self.spec.name,
            status=status,
            attempts=self.attempts,
            error=self.last_error if status != STATUS_OK else None,
            traceback=(
                self.last_traceback if status != STATUS_OK else None
            ),
            attempt_seconds=list(self.attempt_seconds),
            **extra,
        )


class CampaignEngine:
    """Execute (or resume) one campaign spec against a backend.

    Parameters
    ----------
    spec:
        A :class:`CampaignSpec`, or anything
        :func:`~repro.campaigns.spec.load_campaign` accepts (path,
        packaged name, mapping).
    state_dir:
        Campaign-private durable state: a result store holding the
        stage journal and stage values, plus one store per sweep stage
        under ``sweeps/``.  Reuse the same directory to resume.
    backend:
        ``"serial"``: stages run in this process, one at a time (a
        stage with a timeout in a one-worker pool, since only a
        process can be killed).  ``"process"``: independent branches
        run concurrently in a pool of ``workers`` processes.
    workers:
        Worker budget (the ``process`` pool's size; it is also
        advertised to steps through ``StageContext.workers``).
    chaos:
        Optional stage-granular fault injection, applied at each stage
        boundary in the orchestrating process.
    """

    def __init__(
        self,
        spec: Any,
        state_dir: os.PathLike,
        backend: str = "serial",
        workers: Optional[int] = None,
        chaos: Optional[ChaosSpec] = None,
        code_version: Optional[str] = None,
    ) -> None:
        self.spec = load_campaign(spec)
        self.state_dir = Path(state_dir)
        self.workers = max(1, workers or 1)
        self.chaos = chaos
        self.code_version = code_version or _default_code_version()
        if backend not in ("serial", "process"):
            raise ConfigurationError(
                f"unknown execution backend {backend!r} "
                "(known: ['process', 'serial'])"
            )
        self.backend = backend
        self.supervisor = (
            PoolSupervisor(1, in_process=True)
            if backend == "serial"
            else PoolSupervisor(self.workers)
        )
        self.dag = self.spec.dag()
        # Imported here: sqlite3 and the store load with the first
        # engine, not with every ``import repro.campaigns``.
        from repro.store.api import ResultStore

        self.store = ResultStore(
            self.state_dir, code_version=self.code_version
        )

    # -- durable state -------------------------------------------------------

    def journal(self) -> StoreCampaignJournal:
        return self.store.campaign_journal(self.spec.name, self.spec.seed)

    # -- status (read-only) --------------------------------------------------

    def status(self) -> Dict[str, Any]:
        """Journal-derived progress without locking or executing.

        Safe to call while another process runs the campaign (reads
        never take the writer lock).
        """
        try:
            journaled = self.journal().load()
        finally:
            self.store.close()
        stages = {}
        for name in self.dag.order:
            outcome = journaled.get(name)
            stages[name] = {
                "status": outcome.status if outcome else "pending",
                "attempts": outcome.attempts if outcome else 0,
                "error": outcome.error if outcome else None,
            }
        done = sum(
            1 for entry in stages.values() if entry["status"] == STATUS_OK
        )
        return {
            "campaign": self.spec.name,
            "seed": self.spec.seed,
            "stages": stages,
            "completed": done,
            "total": len(stages),
        }

    # -- execution -----------------------------------------------------------

    def run(self, resume: bool = False) -> CampaignResult:
        """Execute the campaign; with ``resume=True``, continue it.

        A fresh run truncates the stage journal first; a resume
        replays every journaled terminal outcome (completed stages
        from their persisted values, permanent failures as failures)
        and executes only what is missing.
        """
        started = time.perf_counter()
        journal = self.journal()
        journal.acquire()
        try:
            if not resume:
                journal.reset()
            journaled = journal.load() if resume else {}
            result = self._execute(journal, journaled)
        finally:
            self.store.close()
        result.wall_seconds = time.perf_counter() - started
        return result

    def _make_context(
        self, stage: StageSpec, values: Dict[str, Any]
    ) -> StageContext:
        return StageContext(
            stage=stage.name,
            params=dict(stage.params),
            seed=stage_seed(self.spec.seed, self.spec.name, stage.name),
            upstream={dep: values[dep] for dep in stage.after},
            workers=self.workers,
            state_dir=self.state_dir,
            code_version=self.code_version,
        )

    def _execute(
        self,
        journal: StoreCampaignJournal,
        journaled: Dict[str, StageOutcome],
    ) -> CampaignResult:
        order = self.dag.order
        states = {
            name: _StageState(
                spec=self.dag.stages[name],
                policy=self.dag.stages[name].policy(),
            )
            for name in order
        }
        outcomes: Dict[str, StageOutcome] = {}
        values: Dict[str, Any] = {}
        #: Unmet-dependency counts (only ok dependencies unblock).
        blocked = {
            name: len(self.dag.stages[name].after) for name in order
        }
        skipped: set = set()
        #: (eligible_monotonic, stage) pairs sleeping out a backoff.
        waiting: List = []
        inflight = 0

        def finish_ok(
            name: str, outcome: StageOutcome, value: Any
        ) -> None:
            outcomes[name] = outcome
            values[name] = value
            for child in self.dag.successors(name):
                blocked[child] -= 1

        def finish_failed(name: str, outcome: StageOutcome) -> None:
            state = states[name]
            outcomes[name] = outcome
            if not state.policy.collects:
                raise CampaignError(
                    f"campaign {self.spec.name!r} aborted: "
                    + outcome.describe(),
                    outcome=outcome,
                )
            for descendant in self.dag.downstream_cone(name):
                if descendant in skipped or descendant in outcomes:
                    continue
                skipped.add(descendant)
                outcomes[descendant] = StageOutcome(
                    stage=descendant,
                    status=STATUS_SKIPPED,
                    attempts=0,
                    error=f"upstream stage {name!r} failed",
                )

        def replay(name: str) -> bool:
            """Serve one stage from the journal; False → execute it."""
            outcome = journaled.get(name)
            if outcome is None:
                return False
            if outcome.ok:
                found, value = journal.load_value(
                    name, outcome.result_digest
                )
                if not found:
                    # The journal promised a value the store no longer
                    # has (or has wrong) — re-execute; the fresh
                    # terminal outcome replaces this one.
                    return False
                outcome.resumed = True
                finish_ok(name, outcome, value)
                return True
            outcome.resumed = True
            finish_failed(name, outcome)
            return True

        def terminal_failure(name: str, status: str) -> None:
            state = states[name]
            outcome = state.outcome(status)
            journal.record(outcome)
            finish_failed(name, outcome)

        def dispatch(name: str) -> None:
            nonlocal inflight
            state = states[name]
            state.attempts += 1
            state.inflight = True
            if self.chaos is not None:
                # Orchestrator-side: a planned "die" hard-exits right
                # here, between stages — the SIGKILL the resume path
                # exists for.  A "raise"/"hang" counts as a failed
                # attempt of this stage without dispatching it.
                try:
                    self.chaos.inject_stage(name, state.attempts)
                except Exception as exc:
                    state.inflight = False
                    state.failures += 1
                    state.last_error = f"{type(exc).__name__}: {exc}"
                    state.last_traceback = None
                    state.attempt_seconds.append(0.0)
                    if state.failures >= state.policy.max_attempts:
                        terminal_failure(name, STATUS_FAILED)
                    else:
                        waiting.append(
                            (
                                time.monotonic()
                                + state.policy.backoff_for(
                                    state.failures,
                                    key=self._backoff_key(name),
                                ),
                                name,
                            )
                        )
                    return
            inflight += 1
            self.supervisor.submit(
                name,
                _execute_stage,
                (state.spec.step, self._make_context(state.spec, values)),
                state.policy.timeout_seconds,
            )

        def settle(name: str, report: tuple) -> None:
            nonlocal inflight
            inflight -= 1
            state = states[name]
            state.inflight = False
            kind = report[0]
            if kind == "ok":
                _, value, elapsed = report
                state.attempt_seconds.append(elapsed)
                state.last_error = state.last_traceback = None
                outcome = state.outcome(
                    STATUS_OK, result_digest=result_digest(value)
                )
                journal.save_value(name, outcome.result_digest, value)
                # Value first, then the outcome row that promises it:
                # a crash between the two re-executes the stage, never
                # trusts a phantom value.
                journal.record(outcome)
                finish_ok(name, outcome, value)
                return
            if kind == "err":
                _, error, trace, _exception, elapsed = report
                state.last_error = error
                state.last_traceback = trace
                state.last_status = STATUS_FAILED
            elif kind == "timeout":
                elapsed = report[1]
                state.last_error = (
                    f"stage exceeded its "
                    f"{state.policy.timeout_seconds}s timeout"
                )
                state.last_traceback = None
                state.last_status = STATUS_TIMED_OUT
            else:  # crashed
                elapsed = report[1]
                state.last_error = (
                    "worker process died while executing this stage"
                )
                state.last_traceback = None
                state.last_status = STATUS_CRASHED
            state.attempt_seconds.append(elapsed)
            state.failures += 1
            if state.failures >= state.policy.max_attempts:
                terminal_failure(name, state.last_status)
            else:
                waiting.append(
                    (
                        time.monotonic()
                        + state.policy.backoff_for(
                            state.failures, key=self._backoff_key(name)
                        ),
                        name,
                    )
                )

        try:
            # Replay journaled history in topological order first, so
            # a replayed failure skips its cone before the scheduler
            # considers the cone runnable.
            for name in order:
                if name not in outcomes:
                    replay(name)

            dispatched: set = set()
            while len(outcomes) < len(order):
                # Release stages whose backoff has elapsed.
                now = time.monotonic()
                due = [item for item in waiting if item[0] <= now]
                for item in due:
                    waiting.remove(item)
                    dispatched.discard(item[1])

                progressed = False
                for name in order:
                    if inflight >= self.supervisor.capacity:
                        break
                    state = states[name]
                    if (
                        name in outcomes
                        or name in dispatched
                        or state.inflight
                        or blocked[name] > 0
                        or any(item[1] == name for item in waiting)
                    ):
                        continue
                    dispatched.add(name)
                    dispatch(name)
                    progressed = True

                if inflight > 0:
                    for name, report in self.supervisor.drain():
                        settle(name, report)
                        progressed = True
                if progressed or len(outcomes) >= len(order):
                    continue
                if waiting:
                    time.sleep(
                        max(
                            0.0,
                            min(item[0] for item in waiting)
                            - time.monotonic(),
                        )
                    )
                    continue
                raise CampaignError(  # pragma: no cover - invariant
                    f"campaign {self.spec.name!r} deadlocked with "
                    f"{len(order) - len(outcomes)} stages unrunnable"
                )
        finally:
            self.supervisor.stop()

        return CampaignResult(
            spec=self.spec,
            outcomes=outcomes,
            values=values,
            order=list(order),
            backend=self.backend,
        )

    def _backoff_key(self, stage: str) -> str:
        return f"campaign:{self.spec.name}:{stage}"


def run_campaign_spec(
    spec: Any,
    state_dir: os.PathLike,
    backend: str = "serial",
    workers: Optional[int] = None,
    resume: bool = False,
    chaos: Optional[ChaosSpec] = None,
    code_version: Optional[str] = None,
) -> CampaignResult:
    """One-call convenience wrapper around :class:`CampaignEngine`."""
    engine = CampaignEngine(
        spec,
        state_dir,
        backend=backend,
        workers=workers,
        chaos=chaos,
        code_version=code_version,
    )
    return engine.run(resume=resume)
