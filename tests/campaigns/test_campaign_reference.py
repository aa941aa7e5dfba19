"""Equivalence suite: the campaign engine vs its pre-ledger loop.

:class:`~repro.campaigns.engine.CampaignEngine` charges stage reports
through the sweep engine's :class:`~repro.experiments.pool.
AttemptLedger`.  :func:`reference_execute` ports the loop that ledger
replaced — per-stage failure state, a ``(deadline, stage)`` backoff
list, orchestrator-side stage chaos — and serves as the executable
specification on the ``serial`` backend: under random raise/hang
stage chaos, retry budgets and raise/collect policies, statuses,
attempt counts and the canonical digest (or the stage whose failure
aborts the campaign) must agree.
"""

import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.campaigns import (
    CampaignEngine,
    CampaignSpec,
    StageContext,
    StageSpec,
)
from repro.campaigns.engine import CampaignResult, _execute_stage, stage_seed
from repro.errors import CampaignError
from repro.experiments.pool import timed_call
from repro.experiments.resilience import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SKIPPED,
    ChaosSpec,
    FailurePolicy,
    Outcome,
)

from tests.campaigns.test_campaign_properties import random_dags

# -- reference (port of the pre-ledger loop) ---------------------------------


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

    def outcome(self, status):
        return Outcome(
            key=self.spec.name,
            status=status,
            attempts=self.attempts,
            error=self.last_error if status != STATUS_OK else None,
            traceback=(
                self.last_traceback if status != STATUS_OK else None
            ),
            attempt_seconds=list(self.attempt_seconds),
        )


def reference_execute(spec, state_dir, chaos=None):
    """A fresh, store-less run on the serial backend (no timeouts:
    a stage runs in this process, one at a time, in dispatch order)."""
    dag = spec.dag()
    order = dag.order
    states = {
        name: _StageState(
            spec=dag.stages[name], policy=dag.stages[name].policy()
        )
        for name in order
    }
    outcomes = {}
    values = {}
    blocked = {name: len(dag.stages[name].after) for name in order}
    skipped = set()
    waiting = []
    #: The in-process supervisor's one slot: (name, step, context).
    inflight = []

    def finish_ok(name, outcome, value):
        outcomes[name] = outcome
        values[name] = value
        for child in dag.successors(name):
            blocked[child] -= 1

    def finish_failed(name, outcome):
        outcomes[name] = outcome
        if not states[name].policy.collects:
            raise CampaignError(
                f"campaign {spec.name!r} aborted: " + outcome.describe(),
                outcome=outcome,
            )
        for descendant in dag.downstream_cone(name):
            if descendant in skipped or descendant in outcomes:
                continue
            skipped.add(descendant)
            outcomes[descendant] = Outcome(
                key=descendant,
                status=STATUS_SKIPPED,
                attempts=0,
                error=f"upstream stage {name!r} failed",
            )

    def backoff(name, state):
        waiting.append(
            (
                time.monotonic()
                + state.policy.backoff_for(
                    state.failures, key=f"campaign:{spec.name}:{name}"
                ),
                name,
            )
        )

    def dispatch(name):
        state = states[name]
        state.attempts += 1
        state.inflight = True
        if chaos is not None:
            try:
                chaos.inject_stage(name, state.attempts)
            except Exception as exc:
                state.inflight = False
                state.failures += 1
                state.last_error = f"{type(exc).__name__}: {exc}"
                state.last_traceback = None
                state.attempt_seconds.append(0.0)
                if state.failures >= state.policy.max_attempts:
                    finish_failed(name, state.outcome(STATUS_FAILED))
                else:
                    backoff(name, state)
                return
        context = StageContext(
            stage=name,
            params=dict(state.spec.params),
            seed=stage_seed(spec.seed, spec.name, name),
            upstream={dep: values[dep] for dep in state.spec.after},
            workers=1,
            state_dir=state_dir,
            code_version="reference",
        )
        inflight.append((name, state.spec.step, context))

    def settle(name, report):
        state = states[name]
        state.inflight = False
        if report[0] == "ok":
            _, value, elapsed = report
            state.attempt_seconds.append(elapsed)
            state.last_error = state.last_traceback = None
            finish_ok(name, state.outcome(STATUS_OK), value)
            return
        _, error, trace, _exception, elapsed = report
        state.last_error = error
        state.last_traceback = trace
        state.attempt_seconds.append(elapsed)
        state.failures += 1
        if state.failures >= state.policy.max_attempts:
            finish_failed(name, state.outcome(STATUS_FAILED))
        else:
            backoff(name, state)

    dispatched = set()
    while len(outcomes) < len(order):
        now = time.monotonic()
        for item in [item for item in waiting if item[0] <= now]:
            waiting.remove(item)
            dispatched.discard(item[1])
        progressed = False
        for name in order:
            if inflight:
                break
            if (
                name in outcomes
                or name in dispatched
                or states[name].inflight
                or blocked[name] > 0
                or any(item[1] == name for item in waiting)
            ):
                continue
            dispatched.add(name)
            dispatch(name)
            progressed = True
        if inflight:
            name, step, context = inflight.pop()
            settle(name, timed_call(_execute_stage, (step, context)))
            progressed = True
        if progressed or len(outcomes) >= len(order):
            continue
        time.sleep(
            max(0.0, min(item[0] for item in waiting) - time.monotonic())
        )
    return CampaignResult(
        spec=spec, outcomes=outcomes, values=values, order=list(order)
    )


# -- the property ------------------------------------------------------------

_ACTIONS = st.lists(
    st.sampled_from(["raise", "hang", "ok"]), min_size=0, max_size=3
).map(tuple)


@st.composite
def _cases(draw):
    base = draw(random_dags())
    stages = tuple(
        StageSpec(
            name=stage.name,
            step=stage.step,
            params=dict(stage.params),
            after=stage.after,
            retries=draw(st.integers(min_value=0, max_value=2)),
            on_error=draw(st.sampled_from(["raise", "collect"])),
        )
        for stage in base.stages
    )
    spec = CampaignSpec(name=base.name, seed=base.seed, stages=stages)
    names = [stage.name for stage in stages]
    chaos = ChaosSpec(
        stage_plan=draw(
            st.dictionaries(st.sampled_from(names), _ACTIONS)
        ),
        seed=draw(st.integers(min_value=0, max_value=50)),
        raise_rate=draw(st.sampled_from([0.0, 0.3])),
        hang_rate=draw(st.sampled_from([0.0, 0.2])),
        attempts_affected=draw(st.integers(min_value=1, max_value=3)),
        hang_seconds=0.005,
        stage_rates=draw(st.booleans()),
    )
    return spec, chaos


def _observe(run):
    """Statuses, attempts and digest; or the stage that aborted."""
    try:
        result = run()
    except CampaignError as exc:
        outcome = exc.outcome
        return ("raised", outcome.key, outcome.status, outcome.attempts)
    return (
        "returned",
        {
            name: (outcome.status, outcome.attempts)
            for name, outcome in result.outcomes.items()
        },
        result.canonical_digest(),
    )


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=_cases())
def test_engine_matches_the_pre_ledger_loop(case, tmp_path):
    spec, chaos = case
    engine_dir = Path(tempfile.mkdtemp(dir=tmp_path))
    reference_dir = Path(tempfile.mkdtemp(dir=tmp_path))
    observed = _observe(
        lambda: CampaignEngine(
            spec, engine_dir, chaos=chaos, code_version="pinned"
        ).run()
    )
    expected = _observe(
        lambda: reference_execute(spec, reference_dir, chaos)
    )
    assert observed == expected


# -- pinned cases ------------------------------------------------------------


def test_first_failing_stage_in_dispatch_order_aborts(tmp_path):
    # s0 and s1 are independent and both exhaust their budgets; the
    # serial loop retries s0 to exhaustion before s1's second attempt,
    # so s0 is the stage the campaign aborts on.
    spec = CampaignSpec(
        name="pin",
        stages=(
            StageSpec(name="s0", step="t.add", retries=1),
            StageSpec(name="s1", step="t.add", retries=1),
        ),
    )
    chaos = ChaosSpec(
        stage_plan={"s0": ("raise", "raise"), "s1": ("raise", "raise")}
    )
    observed = _observe(
        lambda: CampaignEngine(
            spec, tmp_path / "engine", chaos=chaos, code_version="pinned"
        ).run()
    )
    assert observed == _observe(
        lambda: reference_execute(spec, tmp_path / "reference", chaos)
    )
    assert observed == ("raised", "s0", STATUS_FAILED, 2)
