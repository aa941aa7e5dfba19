"""The campaign engine: resilient DAG execution with durable resume.

:class:`CampaignEngine` walks a :class:`~repro.campaigns.spec.
CampaignSpec`'s DAG in deterministic topological order, executing each
stage through a :class:`~repro.experiments.pool.PoolSupervisor` — the
one sweeps use — under the stage's own
:class:`~repro.experiments.resilience.FailurePolicy`:

- the sweep engine's :class:`~repro.experiments.pool.AttemptLedger`
  charges every report: a failing attempt retries with deterministic,
  per-stage-jittered backoff, a convicted worker crash spends the
  stage's crash budget;
- an exhausted policy under ``on_error="raise"`` aborts the campaign
  with :class:`~repro.errors.CampaignError`;
- under ``on_error="collect"`` the stage is marked failed and only its
  downstream cone is skipped — independent branches keep running;
- every terminal outcome, and before it each completed stage's value,
  is committed to the campaign's result store the moment it exists
  (a skipped stage is never journaled) —
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
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.campaigns.spec import CampaignSpec, StageSpec, load_campaign
from repro.campaigns.steps import StageContext, resolve_step
from repro.errors import CampaignError, ConfigurationError
from repro.experiments.pool import AttemptLedger, PoolSupervisor
from repro.experiments.resilience import (
    STATUS_OK,
    STATUS_SKIPPED,
    ChaosSpec,
    Outcome,
    result_digest,
)
from repro.experiments.sweep import _default_code_version, canonical_bytes
from repro.sim.rng import derive_seed


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


@dataclass
class CampaignResult:
    """Everything one campaign run produced."""

    spec: CampaignSpec
    #: Stage name -> terminal outcome, for every stage in the spec.
    outcomes: Dict[str, Outcome]
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

    # -- status (read-only) --------------------------------------------------

    def status(self) -> Dict[str, Any]:
        """Journal-derived progress without locking or executing.

        Safe to call while another process runs the campaign (reads
        never take the writer lock).
        """
        try:
            # A pure read: a campaign that never ran gets no row.
            campaign = self.store.find_campaign_id(
                self.spec.name, self.spec.seed
            )
            journaled = (
                {}
                if campaign is None
                else self.store.load_stage_outcomes(campaign)
            )
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
        # Lock first: a second live orchestrator fails fast with
        # StoreLockedError instead of interleaving its journal rows.
        self.store.acquire()
        try:
            campaign = self.store.campaign_id(self.spec.name, self.spec.seed)
            if resume:
                journaled = self.store.load_stage_outcomes(campaign)
            else:
                self.store.clear_stages(campaign)
                journaled = {}
            result = self._execute(campaign, journaled)
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
        self, campaign: int, journaled: Dict[str, Outcome]
    ) -> CampaignResult:
        order = self.dag.order
        stages = self.dag.stages
        store = self.store
        supervisor = self.supervisor
        ledger = AttemptLedger(
            "stage", backoff_prefix=f"campaign:{self.spec.name}:"
        )
        for name in order:
            ledger.open(name, stages[name].policy(), label=name)
        outcomes: Dict[str, Outcome] = {}
        values: Dict[str, Any] = {}
        #: Unmet-dependency counts (only ok dependencies unblock).
        blocked = {name: len(stages[name].after) for name in order}
        #: Stages with an attempt in flight or sleeping out a backoff.
        busy: set = set()

        def finish_ok(name: str, outcome: Outcome, value: Any) -> None:
            outcomes[name] = outcome
            values[name] = value
            for child in self.dag.successors(name):
                blocked[child] -= 1

        def finish_failed(name: str, outcome: Outcome) -> None:
            outcomes[name] = outcome
            if not stages[name].policy().collects:
                raise CampaignError(
                    f"campaign {self.spec.name!r} aborted: "
                    + outcome.describe(),
                    outcome=outcome,
                )
            for descendant in self.dag.downstream_cone(name):
                outcomes.setdefault(
                    descendant,
                    Outcome(
                        key=descendant,
                        status=STATUS_SKIPPED,
                        attempts=0,
                        error=f"upstream stage {name!r} failed",
                    ),
                )

        def settle(name: str, report: tuple) -> None:
            verdict = ledger.settle(name, report)
            if verdict.kind != "wait":
                busy.discard(name)
            outcome = verdict.outcome
            if verdict.kind == "ok":
                outcome.result_digest = result_digest(verdict.value)
                # Value first, then the outcome row that promises it:
                # a crash between the two re-executes the stage, never
                # trusts a phantom value.
                store.save_stage_value(
                    campaign, name, outcome.result_digest, verdict.value
                )
                store.record_stage_outcome(campaign, outcome)
                finish_ok(name, outcome, verdict.value)
            elif verdict.kind == "terminal":
                store.record_stage_outcome(campaign, outcome)
                finish_failed(name, outcome)

        def start(name: str) -> None:
            stage = stages[name]
            busy.add(name)
            if self.chaos is not None:
                # Orchestrator-side: a planned "die" hard-exits right
                # here, between stages — the SIGKILL the resume path
                # exists for.  A "raise"/"hang" is a failed attempt of
                # this stage that never reached a worker.
                try:
                    self.chaos.inject_stage(name, ledger.attempt(name))
                except Exception as exc:
                    text = f"{type(exc).__name__}: {exc}"
                    settle(name, ("err", text, None, exc, 0.0))
                    return
            supervisor.submit(
                name,
                _execute_stage,
                (stage.step, self._make_context(stage, values)),
                stage.timeout_seconds,
            )

        try:
            # Replay journaled history in topological order first, so
            # a replayed failure skips its cone before the scheduler
            # considers the cone runnable.
            for name in order:
                outcome = journaled.get(name)
                if outcome is None or name in outcomes:
                    continue
                if not outcome.ok:
                    outcome.resumed = True
                    finish_failed(name, outcome)
                    continue
                found, value = store.load_stage_value(
                    campaign, name, outcome.result_digest
                )
                # Not found: the journal promised a value the store no
                # longer has (or has wrong), so the stage re-executes
                # and its fresh outcome replaces this one.
                if found:
                    outcome.resumed = True
                    finish_ok(name, outcome, value)

            while len(outcomes) < len(order):
                busy.difference_update(ledger.due())
                for name in order:
                    if supervisor.pending >= supervisor.capacity:
                        break
                    if name in outcomes or name in busy or blocked[name]:
                        continue
                    start(name)
                # Wake for the first backoff deadline, not only for a
                # report: a due retry must not wait on a slow sibling.
                next_due = ledger.next_due
                for name, report in supervisor.drain(
                    None if next_due is None else next_due - time.monotonic()
                ):
                    settle(name, report)
        finally:
            supervisor.stop()

        return CampaignResult(
            spec=self.spec,
            outcomes=outcomes,
            values=values,
            order=list(order),
            backend=self.backend,
        )


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
