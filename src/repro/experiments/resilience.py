"""Fault-tolerant campaign execution: policies, outcomes, chaos.

The sweep engine fans millions-of-points campaigns across worker
processes; this module holds the fault-tolerance vocabulary it speaks:

- :class:`FailurePolicy` — per-point retry budget with bounded
  backoff, per-point wall-clock timeout, and graceful degradation
  (``on_error="collect"``) instead of aborting the whole campaign.
- :class:`Outcome` — the structured record every sweep point and
  campaign stage ends with (ok / failed / timed_out / crashed, or
  ``skipped`` for a stage below a failed one; attempt count, error
  text, traceback, per-attempt seconds), collected in
  :class:`~repro.experiments.sweep.SweepResult.outcomes` and
  :class:`~repro.campaigns.engine.CampaignResult.outcomes` and
  journaled by the result store, so a SIGKILL'd sweep or campaign
  resumes skipping both completed *and* permanently-failed work.
- :class:`ChaosSpec` — a deterministic, seedable fault injector
  (raise / hang / die at chosen points and attempts) that exercises
  every recovery path in tests without flaky timing.

None of this perturbs per-point seed derivation: a retried attempt
re-runs the *same* ``(params, seed)``, so every point that completes is
byte-identical to a serial, chaos-free run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import (
    Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

from repro.errors import ChaosError, ConfigurationError
from repro.sim.rng import derive_seed

#: Terminal statuses of an executed point or stage (the only ones the
#: store journals).
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_TIMED_OUT = "timed_out"
STATUS_CRASHED = "crashed"
STATUSES = (STATUS_OK, STATUS_FAILED, STATUS_TIMED_OUT, STATUS_CRASHED)
#: Stage-only status: an upstream stage failed, so this one never ran.
#: It appears in campaign results but is never journaled: a resume
#: that recovers the failed ancestor must be free to run the stage.
STATUS_SKIPPED = "skipped"

#: Chaos actions an attempt can be assigned.
CHAOS_OK = "ok"
CHAOS_RAISE = "raise"
CHAOS_HANG = "hang"
CHAOS_DIE = "die"
CHAOS_ACTIONS = (CHAOS_OK, CHAOS_RAISE, CHAOS_HANG, CHAOS_DIE)

#: Exit code a chaos-killed worker dies with (visible in core logs).
CHAOS_EXIT_CODE = 113


@dataclass(frozen=True)
class FailurePolicy:
    """How one sweep point may fail, retry, and degrade.

    Parameters
    ----------
    max_attempts:
        Executions a point gets before its failure becomes terminal
        (raising runner or timeout both consume an attempt).
    timeout_seconds:
        Per-point wall-clock budget per attempt.  Exceeding it kills
        the worker pool (a hung worker cannot be cancelled), rebuilds
        it, and either retries the point or records ``timed_out``.
    on_error:
        ``"raise"`` (default) aborts the sweep on the first terminal
        failure — the historical behaviour.  ``"collect"`` records an
        :class:`Outcome` for the failed point (its value is ``None``)
        and keeps going.
    backoff_seconds:
        Delay before the second attempt; doubles each retry
        (``backoff_multiplier``) up to ``max_backoff_seconds``.
    max_crashes:
        Times a point may take a worker down with it (pool marked
        broken) before it is terminally ``crashed`` instead of being
        resubmitted forever.

    >>> FailurePolicy(max_attempts=3).backoff_for(1)
    0.0
    >>> FailurePolicy(backoff_seconds=1.0, max_backoff_seconds=3.0).backoff_for(3)
    3.0
    """

    max_attempts: int = 1
    timeout_seconds: Optional[float] = None
    on_error: str = "raise"
    backoff_seconds: float = 0.0
    backoff_multiplier: float = 2.0
    max_backoff_seconds: float = 30.0
    max_crashes: int = 3
    backoff_jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ConfigurationError(
                f"timeout_seconds must be > 0, got {self.timeout_seconds}"
            )
        if self.on_error not in ("raise", "collect"):
            raise ConfigurationError(
                f"on_error must be 'raise' or 'collect', got "
                f"{self.on_error!r}"
            )
        if self.backoff_seconds < 0 or self.max_backoff_seconds < 0:
            raise ConfigurationError("backoff seconds must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError("backoff_multiplier must be >= 1")
        if self.max_crashes < 1:
            raise ConfigurationError(
                f"max_crashes must be >= 1, got {self.max_crashes}"
            )
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ConfigurationError(
                f"backoff_jitter must be in [0, 1], got "
                f"{self.backoff_jitter}"
            )

    @property
    def collects(self) -> bool:
        return self.on_error == "collect"

    def backoff_for(self, failures: int, key: Optional[str] = None) -> float:
        """Bounded delay before the attempt following ``failures``.

        With a ``key`` (the point's or stage's identity), the delay is
        spread by deterministic per-key jitter — a factor in
        ``[1 - backoff_jitter, 1]`` drawn from a counter-based hash of
        ``(key, failures)`` — so a pool of points that all failed at
        once does not retry in lockstep and re-thunder the same herd.
        The jitter is a pure function of the key, never of wall time
        or worker identity, so serial and parallel runs sleep the same
        schedule and byte-identity of results is untouched.

        >>> policy = FailurePolicy(backoff_seconds=1.0,
        ...                        max_backoff_seconds=3.0)
        >>> policy.backoff_for(3)
        3.0
        >>> a = policy.backoff_for(3, key="point-a")
        >>> a == policy.backoff_for(3, key="point-a")  # deterministic
        True
        >>> 0.0 < a <= 3.0
        True
        """
        if self.backoff_seconds <= 0.0 or failures < 1:
            return 0.0
        delay = self.backoff_seconds * (
            self.backoff_multiplier ** (failures - 1)
        )
        delay = min(delay, self.max_backoff_seconds)
        if key is None or self.backoff_jitter <= 0.0:
            return delay
        draw = derive_seed(0, f"backoff:{key}:{failures}")
        u = (draw % (2**53)) / float(2**53)
        return delay * (1.0 - self.backoff_jitter * u)


def result_digest(value: Any) -> str:
    """Digest binding a journaled stage to its persisted value.

    >>> result_digest({"a": 1}) == result_digest({"a": 1})
    True
    """
    from repro.experiments.sweep import canonical_bytes

    return hashlib.sha256(canonical_bytes(value)).hexdigest()[:16]


@dataclass
class Outcome:
    """The terminal record of one sweep point or campaign stage.

    ``key`` is the point's canonical key or the stage's name;
    ``index`` is the point's position in its sweep (``None`` for a
    stage).  ``attempts`` counts every execution that *started*
    (including ones that crashed their worker); ``attempt_seconds`` is
    index-aligned with them.  ``error``/``traceback`` describe the
    last failure (both ``None`` when ``status == "ok"``).  ``cached``
    marks a point value served from the sweep cache without executing;
    ``resumed`` marks an outcome replayed from the store's journal
    instead of re-executed.  ``result_digest`` is a completed stage's
    :func:`result_digest`: on resume the campaign engine checks the
    stored stage value against it.

    >>> Outcome(key="grid", status="skipped", attempts=0).describe()
    "stage 'grid': skipped after 0 attempt(s)"
    >>> Outcome(key="a", status="failed", index=3, error="boom").describe()
    'point 3 [a]: failed after 1 attempt(s) — boom'
    """

    key: str
    status: str
    index: Optional[int] = None
    attempts: int = 1
    error: Optional[str] = None
    traceback: Optional[str] = None
    attempt_seconds: List[float] = field(default_factory=list)
    cached: bool = False
    resumed: bool = False
    result_digest: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def describe(self) -> str:
        """One-line human summary (used by failure tables and errors)."""
        if self.index is None:
            text = f"stage {self.key!r}"
        else:
            text = f"point {self.index} [{self.key}]"
        text += f": {self.status} after {self.attempts} attempt(s)"
        if self.error:
            text += f" — {self.error}"
        return text


class JournaledOk(NamedTuple):
    """A journaled ``ok`` point outcome as a resumed sweep reads it:
    its cache hit reports only these two fields, so nothing else of
    the row is decoded.  ``status`` and ``ok`` read as an ``ok``
    :class:`Outcome`'s do.

    >>> prior = JournaledOk(attempts=2, attempt_seconds=[0.5, 0.25])
    >>> prior.status, prior.ok, prior.attempts
    ('ok', True, 2)
    """

    attempts: int
    attempt_seconds: List[float]

    status = STATUS_OK
    ok = True


# -- deterministic chaos harness ---------------------------------------------


@dataclass(frozen=True)
class ChaosSpec:
    """Deterministic, seedable fault injection for sweep executions.

    Two composable modes:

    - **Plan mode** — ``plan`` maps a point *index* to the action of
      each of its attempts, in order (attempts beyond the plan run
      clean).  ``ChaosSpec(plan={3: ("die", "ok")})`` kills the worker
      running point 3 on its first attempt and lets the retry through.
    - **Rate mode** — ``seed`` plus ``raise_rate`` / ``hang_rate`` /
      ``die_rate`` draw an action per ``(point, attempt)`` from a
      counter-based hash of the chaos seed: the same spec injects the
      same faults at the same coordinates in every process, at any
      worker count.  Rates only apply to the first
      ``attempts_affected`` attempts, so a sweep with enough retries
      deterministically completes.
    - **Stage mode** — ``stage_plan`` maps a campaign *stage name* to
      the actions of its attempts, and ``stage_rates=True`` applies
      the rate draws at stage boundaries too (keyed by stage name).
      Stage chaos is injected by the campaign engine in the
      *orchestrating* process, right at the stage boundary — so a
      stage-level ``die`` is a whole-campaign SIGKILL, the exact crash
      ``campaign --resume`` recovers from.

    Actions: ``"raise"`` raises :class:`~repro.errors.ChaosError`,
    ``"hang"`` sleeps ``hang_seconds`` (long past any sane timeout),
    ``"die"`` hard-exits the worker process (``os._exit``), breaking
    the pool.  Injection happens *before* the point runner is invoked,
    so chaos never perturbs the runner's RNG — completed values stay
    byte-identical with and without chaos.

    >>> chaos = ChaosSpec(plan={2: ("raise",)})
    >>> [chaos.action_for(i, 1) for i in range(4)]
    ['ok', 'ok', 'raise', 'ok']
    >>> chaos.action_for(2, 2)
    'ok'
    >>> rated = ChaosSpec(seed=7, raise_rate=0.5)
    >>> rated.action_for(0, 1) == rated.action_for(0, 1)
    True
    >>> rated.action_for(0, 2)  # beyond attempts_affected: clean
    'ok'
    >>> staged = ChaosSpec(stage_plan={"grid": ("raise", "ok")})
    >>> (staged.action_for_stage("grid", 1),
    ...  staged.action_for_stage("grid", 2),
    ...  staged.action_for_stage("report", 1))
    ('raise', 'ok', 'ok')
    """

    plan: Mapping[int, Sequence[str]] = field(default_factory=dict)
    seed: int = 0
    raise_rate: float = 0.0
    hang_rate: float = 0.0
    die_rate: float = 0.0
    attempts_affected: int = 1
    hang_seconds: float = 3600.0
    stage_plan: Mapping[str, Sequence[str]] = field(default_factory=dict)
    stage_rates: bool = False

    def __post_init__(self) -> None:
        normalised: Dict[int, Tuple[str, ...]] = {}
        for index, actions in dict(self.plan).items():
            actions = tuple(actions)
            for action in actions:
                if action not in CHAOS_ACTIONS:
                    raise ConfigurationError(
                        f"unknown chaos action {action!r} "
                        f"(expected one of {CHAOS_ACTIONS})"
                    )
            normalised[int(index)] = actions
        object.__setattr__(self, "plan", normalised)
        staged: Dict[str, Tuple[str, ...]] = {}
        for stage, actions in dict(self.stage_plan).items():
            actions = tuple(actions)
            for action in actions:
                if action not in CHAOS_ACTIONS:
                    raise ConfigurationError(
                        f"unknown chaos action {action!r} for stage "
                        f"{stage!r} (expected one of {CHAOS_ACTIONS})"
                    )
            staged[str(stage)] = actions
        object.__setattr__(self, "stage_plan", staged)
        total = self.raise_rate + self.hang_rate + self.die_rate
        if not 0.0 <= total <= 1.0:
            raise ConfigurationError(
                "chaos rates must be >= 0 and sum to <= 1, got "
                f"raise={self.raise_rate} hang={self.hang_rate} "
                f"die={self.die_rate}"
            )
        if self.attempts_affected < 0:
            raise ConfigurationError("attempts_affected must be >= 0")
        if self.hang_seconds <= 0:
            raise ConfigurationError("hang_seconds must be > 0")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ChaosSpec":
        """Build from a JSON-style mapping (plan keys may be strings)."""
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - fields
        if unknown:
            raise ConfigurationError(
                f"unknown ChaosSpec fields: {sorted(unknown)}"
            )
        return cls(**dict(data))

    def _rated_action(self, counter_key: str, attempt: int) -> str:
        """Rate-mode draw for one (coordinate, attempt) counter key."""
        if attempt > self.attempts_affected:
            return CHAOS_OK
        total = self.raise_rate + self.hang_rate + self.die_rate
        if total <= 0.0:
            return CHAOS_OK
        draw = derive_seed(self.seed, counter_key)
        u = (draw % (2**53)) / float(2**53)
        if u < self.die_rate:
            return CHAOS_DIE
        if u < self.die_rate + self.hang_rate:
            return CHAOS_HANG
        if u < total:
            return CHAOS_RAISE
        return CHAOS_OK

    def action_for(self, point_index: int, attempt: int) -> str:
        """The action for attempt ``attempt`` (1-based) of one point."""
        actions = self.plan.get(point_index)
        if actions is not None:
            if attempt <= len(actions):
                return actions[attempt - 1]
            return CHAOS_OK
        return self._rated_action(f"chaos:{point_index}:{attempt}", attempt)

    def action_for_stage(self, stage: str, attempt: int) -> str:
        """The action for attempt ``attempt`` (1-based) of one stage.

        Stage-granular chaos: an explicit ``stage_plan`` entry wins;
        otherwise the rate draws apply only when ``stage_rates`` is
        set (sweep-point rates and stage rates would otherwise couple
        through one flag).
        """
        actions = self.stage_plan.get(stage)
        if actions is not None:
            if attempt <= len(actions):
                return actions[attempt - 1]
            return CHAOS_OK
        if not self.stage_rates:
            return CHAOS_OK
        return self._rated_action(f"chaos-stage:{stage}:{attempt}", attempt)

    def needs_isolation(self) -> bool:
        """Whether any injected fault must run in a worker process.

        ``die`` would kill the orchestrating process and ``hang``
        would block it forever; both force pool execution even at
        ``workers=1``.
        """
        if self.die_rate > 0.0 or self.hang_rate > 0.0:
            return True
        return any(
            action in (CHAOS_DIE, CHAOS_HANG)
            for actions in self.plan.values()
            for action in actions
        )

    def _apply(self, action: str, where: str) -> None:
        if action == CHAOS_RAISE:
            raise ChaosError(f"chaos: injected failure at {where}")
        if action == CHAOS_HANG:
            time.sleep(self.hang_seconds)
            raise ChaosError(f"chaos: hang elapsed at {where}")
        if action == CHAOS_DIE:
            os._exit(CHAOS_EXIT_CODE)

    def inject(self, point_index: int, attempt: int) -> None:
        """Apply this spec's action for one attempt (worker-side)."""
        self._apply(
            self.action_for(point_index, attempt),
            f"point {point_index} attempt {attempt}",
        )

    def inject_stage(self, stage: str, attempt: int) -> None:
        """Apply this spec's stage action (orchestrator-side).

        Called by the campaign engine at the stage boundary, *before*
        the stage is dispatched: ``raise``/``hang`` surface as a failed
        stage attempt (retryable under the stage's policy), ``die``
        hard-exits the orchestrating process — indistinguishable from
        a SIGKILL at that boundary, which is exactly what the
        crash-resume suite wants to rehearse.
        """
        self._apply(
            self.action_for_stage(stage, attempt),
            f"stage {stage!r} attempt {attempt}",
        )


# -- reporting helpers -------------------------------------------------------

#: Column headers for :func:`failure_rows` tables.
FAILURE_HEADERS = ("point", "key", "status", "attempts", "error")


def failure_rows(outcomes: Sequence[Outcome]) -> List[List[Any]]:
    """Table rows (one per non-ok outcome) for failure summaries."""
    rows = []
    for outcome in outcomes:
        if outcome.ok:
            continue
        rows.append(
            [
                outcome.index,
                outcome.key,
                outcome.status,
                outcome.attempts,
                (outcome.error or "")[:120],
            ]
        )
    return rows
