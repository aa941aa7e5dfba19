"""Tests for the event primitives."""

import pytest

from repro.errors import SimulationError
from repro.sim.events import Event, Interrupt, Timeout
from repro.sim.kernel import Kernel


class TestEventLifecycle:
    def test_new_event_is_pending(self, kernel):
        event = kernel.event()
        assert not event.triggered
        assert not event.processed

    def test_value_unavailable_while_pending(self, kernel):
        event = kernel.event()
        with pytest.raises(SimulationError):
            _ = event.value
        with pytest.raises(SimulationError):
            _ = event.ok

    def test_succeed_attaches_value(self, kernel):
        event = kernel.event()
        event.succeed("payload")
        assert event.triggered
        assert event.ok
        assert event.value == "payload"

    def test_succeed_twice_is_an_error(self, kernel):
        event = kernel.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self, kernel):
        event = kernel.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_fail_then_succeed_is_an_error(self, kernel):
        event = kernel.event()
        event.fail(ValueError("boom"))
        event.defuse()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_processed_after_run(self, kernel):
        event = kernel.event()
        event.succeed(42)
        kernel.run()
        assert event.processed

    def test_callbacks_receive_the_event(self, kernel):
        event = kernel.event()
        seen = []
        event.callbacks.append(lambda ev: seen.append(ev.value))
        event.succeed("x")
        kernel.run()
        assert seen == ["x"]

    def test_repr_shows_state(self, kernel):
        event = kernel.event()
        assert "pending" in repr(event)
        event.succeed()
        assert "triggered" in repr(event)
        kernel.run()
        assert "processed" in repr(event)


class TestUnhandledFailure:
    def test_unconsumed_failure_crashes_the_run(self, kernel):
        event = kernel.event()
        event.fail(RuntimeError("unhandled"))
        with pytest.raises(RuntimeError, match="unhandled"):
            kernel.run()

    def test_defused_failure_passes_silently(self, kernel):
        event = kernel.event()
        event.fail(RuntimeError("handled"))
        event.defuse()
        kernel.run()  # must not raise
        assert event.processed


class TestTimeout:
    def test_fires_after_delay(self, kernel):
        fired = []

        def proc(k):
            yield k.timeout(5.0)
            fired.append(k.now)

        kernel.process(proc(kernel))
        kernel.run()
        assert fired == [5.0]

    def test_zero_delay_fires_at_now(self, kernel):
        fired = []

        def proc(k):
            yield k.timeout(0.0)
            fired.append(k.now)

        kernel.process(proc(kernel))
        kernel.run()
        assert fired == [0.0]

    def test_negative_delay_rejected(self, kernel):
        with pytest.raises(SimulationError):
            kernel.timeout(-1.0)

    def test_carries_a_value(self, kernel):
        def proc(k):
            value = yield k.timeout(1.0, value="tick")
            return value

        process = kernel.process(proc(kernel))
        kernel.run()
        assert process.value == "tick"

    def test_timeouts_order_by_delay(self, kernel):
        order = []

        def waiter(k, delay, tag):
            yield k.timeout(delay)
            order.append(tag)

        kernel.process(waiter(kernel, 3.0, "c"))
        kernel.process(waiter(kernel, 1.0, "a"))
        kernel.process(waiter(kernel, 2.0, "b"))
        kernel.run()
        assert order == ["a", "b", "c"]

    def test_equal_time_fifo_by_creation(self, kernel):
        order = []

        def waiter(k, tag):
            yield k.timeout(1.0)
            order.append(tag)

        for tag in ("first", "second", "third"):
            kernel.process(waiter(kernel, tag))
        kernel.run()
        assert order == ["first", "second", "third"]


class TestInterruptException:
    def test_cause_accessor(self):
        interrupt = Interrupt("reason")
        assert interrupt.cause == "reason"
        assert "reason" in str(interrupt)

    def test_none_cause(self):
        assert Interrupt(None).cause is None
