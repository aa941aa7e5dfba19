"""Equivalence suite: in-process sweeps vs the old serial loop.

At ``workers=1`` :func:`~repro.experiments.sweep.run_sweep` hands its
attempts to a :class:`~repro.experiments.pool.PoolSupervisor` in
in-process mode and charges them in the same loop that drives pools.
:func:`reference_run_serial` ports the loop that mode replaced — each
point runs to a terminal outcome, retries included, before the next
starts — and serves as the executable specification: values, statuses,
attempt counts, the ``on_outcome``/``on_result`` streams and, under
``on_error="raise"``, the exception that aborts the sweep must agree.
"""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ChaosError, PointFailedError
from repro.experiments.pool import timed_call
from repro.experiments.resilience import (
    STATUS_FAILED,
    STATUS_OK,
    ChaosSpec,
    FailurePolicy,
)
from repro.experiments.sweep import (
    SweepSpec,
    _PointState,
    _run_point,
    run_sweep,
)

# -- reference (port of the serial loop) -------------------------------------


def reference_run_serial(
    to_run, runner, policy, chaos, finish, fail_terminal, flush
):
    """In-process execution with retries (no timeout/hang/die chaos)."""
    for point in to_run:
        state = _PointState(point)
        while True:
            # The runner gets a copy so an in-process mutation can
            # never corrupt the point's identity (cache key, reports) —
            # pool workers get a pickled copy for free.
            result = timed_call(
                _run_point,
                (
                    runner,
                    dict(point.params),
                    point.seed,
                    chaos,
                    point.index,
                    state.next_attempt,
                ),
            )
            if result[0] == "ok":
                _, value, elapsed = result
                state.attempt_seconds.append(elapsed)
                finish(point, value, state.outcome(STATUS_OK))
                break
            _, text, trace, exception, elapsed = result
            state.attempt_seconds.append(elapsed)
            state.failures += 1
            state.last_error = text
            state.last_traceback = trace
            if state.failures >= policy.max_attempts:
                fail_terminal(
                    point, state.outcome(STATUS_FAILED), exception
                )
                break
            delay = policy.backoff_for(state.failures, key=point.key())
            if delay > 0.0:
                time.sleep(delay)
        flush()


def reference_sweep(spec, runner, policy, chaos, on_result, on_outcome):
    """``run_sweep``'s bookkeeping (no cache, no journal) around the
    reference loop; returns ``(values, outcomes)``."""
    points = spec.points()
    values = [None] * len(points)
    completed = [False] * len(points)
    outcomes = [None] * len(points)
    delivered = 0

    def flush():
        nonlocal delivered
        while delivered < len(points) and completed[delivered]:
            outcome = outcomes[delivered]
            on_outcome(points[delivered], outcome)
            if outcome.ok:
                on_result(points[delivered], values[delivered])
            delivered += 1

    def finish(point, value, outcome):
        values[point.index] = value
        completed[point.index] = True
        outcomes[point.index] = outcome

    def fail_terminal(point, outcome, exception=None):
        outcomes[point.index] = outcome
        if policy.collects:
            completed[point.index] = True
            return
        if exception is not None:
            raise exception
        raise PointFailedError(outcome.describe(), outcome=outcome)

    reference_run_serial(
        points, runner, policy, chaos, finish, fail_terminal, flush
    )
    flush()
    return values, outcomes


def mutating_runner(params, seed):
    """A runner that scribbles on its params: each attempt must still
    see the point's own."""
    value = {"x": params["x"], "seed": seed % 1000}
    params["x"] = -1
    return value


def _observe(run):
    """Run one sweep; return everything a caller can see of it."""
    stream = []

    def on_outcome(point, outcome):
        stream.append(("outcome", point.index, outcome.status,
                       outcome.attempts, outcome.error))

    def on_result(point, value):
        stream.append(("result", point.index, value))

    try:
        values, outcomes = run(on_result, on_outcome)
    except (ChaosError, PointFailedError) as exc:
        return ("raised", type(exc).__name__, str(exc), stream)
    return (
        "returned",
        values,
        [(o.index, o.status, o.attempts, o.error) for o in outcomes],
        stream,
    )


def _via_run_sweep(spec, policy, chaos):
    def run(on_result, on_outcome):
        result = run_sweep(
            spec, mutating_runner, workers=1, policy=policy, chaos=chaos,
            on_result=on_result, on_outcome=on_outcome,
        )
        return result.values, result.outcomes

    return run


def _via_reference(spec, policy, chaos):
    def run(on_result, on_outcome):
        return reference_sweep(
            spec, mutating_runner, policy, chaos, on_result, on_outcome
        )

    return run


# -- the property ------------------------------------------------------------

_ACTIONS = st.lists(
    st.sampled_from(["raise", "ok"]), min_size=0, max_size=3
).map(tuple)


@st.composite
def _cases(draw):
    count = draw(st.integers(min_value=1, max_value=7))
    plan = draw(
        st.dictionaries(
            st.integers(min_value=0, max_value=count - 1), _ACTIONS,
            max_size=count,
        )
    )
    raise_rate = draw(st.sampled_from([0.0, 0.0, 0.3, 0.6]))
    chaos = ChaosSpec(
        plan=plan,
        seed=draw(st.integers(min_value=0, max_value=50)),
        raise_rate=raise_rate,
        attempts_affected=draw(st.integers(min_value=1, max_value=3)),
    )
    policy = FailurePolicy(
        max_attempts=draw(st.integers(min_value=1, max_value=3)),
        on_error=draw(st.sampled_from(["raise", "collect"])),
    )
    spec = SweepSpec(
        "inline-eq", axes={"x": list(range(count))},
        base_seed=draw(st.integers(min_value=0, max_value=3)),
    )
    return spec, policy, chaos


@settings(max_examples=150, deadline=None)
@given(_cases())
def test_run_sweep_matches_the_serial_loop(case):
    spec, policy, chaos = case
    assert not chaos.needs_isolation()
    assert _observe(_via_run_sweep(spec, policy, chaos)) == _observe(
        _via_reference(spec, policy, chaos)
    )


# -- pinned cases ------------------------------------------------------------


def test_first_terminal_point_in_order_aborts_after_its_predecessors():
    # Point 0 needs its third attempt; points 1 and 2 never pass.
    # The serial loop finishes point 0 before point 1 ever runs, so
    # point 0 is streamed and point 1's last exception aborts the
    # sweep.
    spec = SweepSpec("inline-pin", axes={"x": [0, 1, 2]})
    policy = FailurePolicy(max_attempts=3)
    chaos = ChaosSpec(plan={
        0: ("raise", "raise", "ok"),
        1: ("raise", "raise", "raise"),
        2: ("raise", "raise", "raise"),
    })
    observed = _observe(_via_run_sweep(spec, policy, chaos))
    assert observed == _observe(_via_reference(spec, policy, chaos))
    kind, name, text, stream = observed
    assert (kind, name) == ("raised", "ChaosError")
    assert "point 1 attempt 3" in text
    seed = spec.points()[0].seed % 1000
    assert stream == [
        ("outcome", 0, STATUS_OK, 3, None),
        ("result", 0, {"x": 0, "seed": seed}),
    ]


def test_on_error_raise_reraises_the_original_exception():
    failure = ValueError("the runner's own")

    def runner(params, seed):
        raise failure

    spec = SweepSpec("inline-raise", axes={"x": [0, 1]})
    with pytest.raises(ValueError) as caught:
        run_sweep(spec, runner, workers=1)
    assert caught.value is failure


def test_keyboard_interrupt_propagates_and_stops_the_sweep():
    calls = []

    def runner(params, seed):
        calls.append(params["x"])
        if params["x"] == 1:
            raise KeyboardInterrupt
        return params["x"]

    spec = SweepSpec("inline-interrupt", axes={"x": [0, 1, 2]})
    with pytest.raises(KeyboardInterrupt):
        run_sweep(
            spec, runner, workers=1,
            policy=FailurePolicy(max_attempts=3, on_error="collect"),
        )
    assert calls == [0, 1]


def test_runner_gets_a_copy_of_the_point_params():
    seen = []

    def runner(params, seed):
        seen.append(dict(params))
        params["x"] = "scribbled"
        if len(seen) == 1:
            raise RuntimeError("retry me")
        return params["x"]

    spec = SweepSpec("inline-copy", axes={"x": [5]})
    result = run_sweep(
        spec, runner, workers=1, policy=FailurePolicy(max_attempts=2)
    )
    assert seen == [{"x": 5}, {"x": 5}]
    assert result.points[0].params == {"x": 5}
    assert result.values == ["scribbled"]
