"""Tests for the simulation kernel: clock, run modes, determinism."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.kernel import EmptySchedule, Kernel


class TestClock:
    def test_starts_at_zero_by_default(self):
        assert Kernel().now == 0.0

    def test_custom_epoch(self):
        assert Kernel(initial_time=1000.0).now == 1000.0

    def test_time_advances_with_events(self, kernel):
        kernel.timeout(7.5)
        kernel.run()
        assert kernel.now == 7.5

    def test_step_processes_the_earliest_event(self, kernel):
        kernel.timeout(3.0)
        kernel.timeout(1.0)
        kernel.step()
        assert kernel.now == 1.0


class TestRunModes:
    def test_run_until_empty(self, kernel):
        kernel.timeout(1.0)
        kernel.timeout(2.0)
        kernel.run()
        assert kernel.queued_event_count == 0
        assert kernel.now == 2.0

    def test_run_until_time_sets_clock_exactly(self, kernel):
        kernel.timeout(1.0)
        kernel.run(until=10.0)
        assert kernel.now == 10.0

    def test_run_until_time_processes_due_events_only(self, kernel):
        fired = []

        def proc(k, delay):
            yield k.timeout(delay)
            fired.append(delay)

        kernel.process(proc(kernel, 1.0))
        kernel.process(proc(kernel, 5.0))
        kernel.run(until=3.0)
        assert fired == [1.0]

    def test_run_until_past_time_rejected(self, kernel):
        kernel.run(until=5.0)
        with pytest.raises(SimulationError):
            kernel.run(until=1.0)

    def test_run_until_event_returns_its_value(self, kernel):
        def proc(k):
            yield k.timeout(2.0)
            return "done"

        process = kernel.process(proc(kernel))
        assert kernel.run(until=process) == "done"
        assert kernel.now == 2.0

    def test_run_until_already_processed_event(self, kernel):
        timeout = kernel.timeout(1.0, value="v")
        kernel.run()
        assert kernel.run(until=timeout) == "v"

    def test_run_until_failed_event_raises(self, kernel):
        def proc(k):
            yield k.timeout(1.0)
            raise ValueError("proc failed")

        process = kernel.process(proc(kernel))
        with pytest.raises(ValueError, match="proc failed"):
            kernel.run(until=process)

    def test_run_until_event_that_never_fires_raises(self, kernel):
        pending = kernel.event()
        kernel.timeout(1.0)
        with pytest.raises(SimulationError):
            kernel.run(until=pending)

    def test_step_on_empty_heap_raises(self, kernel):
        with pytest.raises(EmptySchedule):
            kernel.step()

    def test_schedule_into_the_past_rejected(self, kernel):
        event = kernel.event()
        with pytest.raises(SimulationError):
            kernel.schedule(event, delay=-1.0)


class TestDeterminism:
    def _run_workload(self):
        kernel = Kernel()
        log = []

        def worker(k, name, delay, repeats):
            for _ in range(repeats):
                yield k.timeout(delay)
                log.append((k.now, name))

        kernel.process(worker(kernel, "a", 1.5, 4))
        kernel.process(worker(kernel, "b", 2.0, 3))
        kernel.process(worker(kernel, "c", 0.5, 10))
        kernel.run()
        return log

    def test_identical_runs_produce_identical_logs(self):
        assert self._run_workload() == self._run_workload()


class TestFactories:
    def test_process_rejects_non_generator(self, kernel):
        with pytest.raises(SimulationError):
            kernel.process(lambda: None)

    def test_repr_mentions_time(self, kernel):
        kernel.timeout(1.0)
        text = repr(kernel)
        assert "t=" in text and "queued=1" in text


class TestCancellation:
    """Lazy deletion: cancelled entries stay on the heap but are
    skipped, never run callbacks and never advance the clock."""

    def test_cancelled_timeout_does_not_fire(self, kernel):
        fired = []
        timeout = kernel.timeout(5.0)
        timeout.callbacks.append(lambda event: fired.append(event))
        timeout.cancel()
        kernel.run()
        assert fired == []

    def test_cancelled_event_never_advances_clock(self, kernel):
        kernel.timeout(5.0).cancel()
        kernel.run()
        assert kernel.now == 0.0

    def test_queued_event_count_ignores_cancelled(self, kernel):
        keep = kernel.timeout(1.0)
        kernel.timeout(2.0).cancel()
        assert kernel.queued_event_count == 1
        kernel.run()
        assert keep.processed
        assert kernel.queued_event_count == 0

    def test_step_skips_a_cancelled_prefix(self, kernel):
        kernel.timeout(1.0).cancel()
        kernel.timeout(2.0).cancel()
        kernel.timeout(3.0)
        kernel.step()
        assert kernel.now == 3.0

    def test_step_with_only_cancelled_entries_raises(self, kernel):
        kernel.timeout(1.0).cancel()
        with pytest.raises(SimulationError):
            kernel.step()
        assert kernel.now == 0.0

    def test_step_skips_cancelled_entries(self, kernel):
        kernel.timeout(1.0).cancel()
        kernel.timeout(2.0)
        kernel.step()
        assert kernel.now == 2.0

    def test_cancel_twice_is_noop(self, kernel):
        timeout = kernel.timeout(1.0)
        timeout.cancel()
        timeout.cancel()
        assert kernel.queued_event_count == 0
        kernel.run()
        assert kernel.now == 0.0

    def test_cancel_processed_event_rejected(self, kernel):
        timeout = kernel.timeout(1.0)
        kernel.run()
        with pytest.raises(SimulationError):
            kernel.cancel(timeout)

    def test_cancel_untriggered_event_rejected(self, kernel):
        event = kernel.event()
        with pytest.raises(SimulationError):
            kernel.cancel(event)

    def test_cancelled_entries_skipped_mid_run(self, kernel):
        order = []

        def canceller(k, victim):
            yield k.timeout(1.0)
            victim.cancel()
            order.append("cancelled")

        def waiter(k):
            yield k.timeout(3.0)
            order.append("survivor")

        victim = kernel.timeout(2.0)
        victim.callbacks.append(lambda event: order.append("victim"))
        kernel.process(canceller(kernel, victim))
        kernel.process(waiter(kernel))
        kernel.run()
        assert order == ["cancelled", "survivor"]
        assert kernel.now == 3.0


class TestReservedSlots:
    def test_reserve_schedules_nothing(self, kernel):
        kernel.reserve(5.0)
        assert kernel.queued_event_count == 0
        kernel.run()
        assert kernel.now == 0.0

    def test_queued_event_count_counts_pushed_slots_only(self, kernel):
        slots = [kernel.reserve(float(delay)) for delay in (1, 2, 3)]
        kernel.timeout_at(slots[1])
        assert kernel.queued_event_count == 1
        kernel.timeout_at(slots[0])
        assert kernel.queued_event_count == 2
        kernel.run()
        assert kernel.queued_event_count == 0
        assert kernel.now == 2.0

    def test_timeout_at_carries_value_and_fires_at_slot_time(self, kernel):
        slot = kernel.reserve(4.0)
        kernel.run(until=1.5)
        timeout = kernel.timeout_at(slot, value="v")
        assert kernel.run(until=timeout) == "v"
        assert kernel.now == 4.0

    def test_slot_in_the_past_rejected(self, kernel):
        slot = kernel.reserve(1.0)
        kernel.run(until=2.0)
        with pytest.raises(SimulationError, match="past"):
            kernel.timeout_at(slot)
        assert kernel.queued_event_count == 0

    def test_slot_due_now_accepted(self, kernel):
        slot = kernel.reserve(2.0)
        kernel.run(until=2.0)
        kernel.timeout_at(slot)
        kernel.run()
        assert kernel.now == 2.0

    def test_negative_delay_rejected(self, kernel):
        with pytest.raises(SimulationError):
            kernel.reserve(-1.0)


def _slot_order_trace(lazy, ops):
    """Walk ``ops`` at t=0 and return the labelled firing order.

    An ``("arrival", _, delay)`` op makes a timeout eagerly, or (when
    ``lazy``) reserves its slot for a process that pushes slots one at
    a time.  A ``("noise", at, delay)`` op makes a timeout now
    (``at == 0``) or from a process at ``at``, so same-time events are
    created before, between and after the reservations."""
    kernel = Kernel()
    fired = []

    def record(label):
        return lambda event: fired.append((label, kernel.now))

    def later(k, label, at, delay):
        yield k.timeout(at)
        k.timeout(delay).callbacks.append(record(label))

    slots = []
    for index, (kind, at, delay) in enumerate(ops):
        label = (kind, index)
        if kind == "arrival" and lazy:
            slots.append((kernel.reserve(delay), label))
        elif kind == "arrival" or at == 0:
            kernel.timeout(delay).callbacks.append(record(label))
        else:
            kernel.process(later(kernel, label, at, delay))

    def pusher(k):
        for slot, label in sorted(slots):
            timeout = k.timeout_at(slot)
            timeout.callbacks.append(record(label))
            yield timeout

    if lazy:
        kernel.process(pusher(kernel))
    kernel.run()
    return fired


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["arrival", "noise"]),
            st.integers(min_value=0, max_value=8).map(float),
            st.integers(min_value=0, max_value=12).map(float),
        ),
        max_size=30,
    )
)
@settings(max_examples=150, deadline=None)
def test_reserved_slots_fire_in_eager_timeout_order(ops):
    """A reserved slot pushed late fires exactly where a timeout created
    at reserve time would, among same-time events created before and
    after the reservation."""
    eager = _slot_order_trace(False, ops)
    assert _slot_order_trace(True, ops) == eager
    assert len(eager) == len(ops)
