"""Tests for AllOf/AnyOf condition events."""

import pytest

from repro.errors import SimulationError
from repro.sim.conditions import ConditionValue
from repro.sim.kernel import Kernel


class TestAllOf:
    def test_fires_when_all_processed(self, kernel):
        def proc(k):
            t1 = k.timeout(3.0, "x")
            t2 = k.timeout(5.0, "y")
            result = yield k.all_of([t1, t2])
            return (k.now, result[t1], result[t2])

        process = kernel.process(proc(kernel))
        kernel.run()
        assert process.value == (5.0, "x", "y")

    def test_does_not_fire_on_triggered_but_unprocessed(self, kernel):
        """Timeouts are triggered at creation; AllOf must wait for them
        to be *processed*."""

        def proc(k):
            events = [k.timeout(d) for d in (1.0, 2.0, 3.0)]
            yield k.all_of(events)
            return k.now

        process = kernel.process(proc(kernel))
        kernel.run()
        assert process.value == 3.0

    def test_empty_all_of_fires_immediately(self, kernel):
        def proc(k):
            yield k.all_of([])
            return k.now

        process = kernel.process(proc(kernel))
        kernel.run()
        assert process.value == 0.0

    def test_includes_already_processed_events(self, kernel):
        early = kernel.timeout(1.0, "early")
        kernel.run()

        def proc(k):
            late = k.timeout(2.0, "late")
            result = yield k.all_of([early, late])
            return (result[early], result[late])

        process = kernel.process(proc(kernel))
        kernel.run()
        assert process.value == ("early", "late")

    def test_failure_propagates(self, kernel):
        event = kernel.event()

        def proc(k):
            try:
                yield k.all_of([k.timeout(5.0), event])
            except ValueError:
                return ("failed", k.now)

        def failer(k):
            yield k.timeout(1.0)
            event.fail(ValueError("member failed"))

        process = kernel.process(proc(kernel))
        kernel.process(failer(kernel))
        kernel.run()
        assert process.value == ("failed", 1.0)

    def test_mixed_kernel_events_rejected(self, kernel):
        other = Kernel()
        with pytest.raises(SimulationError):
            kernel.all_of([kernel.event(), other.event()])


class TestAnyOf:
    def test_fires_on_first(self, kernel):
        def proc(k):
            t1 = k.timeout(3.0, "fast")
            t2 = k.timeout(9.0, "slow")
            result = yield k.any_of([t1, t2])
            return (k.now, t1 in result, t2 in result)

        process = kernel.process(proc(kernel))
        kernel.run()
        assert process.value == (3.0, True, False)

    def test_empty_any_of_fires_immediately(self, kernel):
        def proc(k):
            yield k.any_of([])
            return k.now

        process = kernel.process(proc(kernel))
        kernel.run()
        assert process.value == 0.0

    def test_later_events_still_fire_harmlessly(self, kernel):
        def proc(k):
            t1 = k.timeout(1.0)
            t2 = k.timeout(2.0)
            yield k.any_of([t1, t2])
            yield k.timeout(5.0)  # outlive t2's firing
            return k.now

        process = kernel.process(proc(kernel))
        kernel.run()
        assert process.value == 6.0

    def test_simultaneous_events_both_counted(self, kernel):
        def proc(k):
            t1 = k.timeout(2.0, "a")
            t2 = k.timeout(2.0, "b")
            result = yield k.any_of([t1, t2])
            return len(result)

        process = kernel.process(proc(kernel))
        kernel.run()
        # Only the first processed event is in the value (the condition
        # fires before the second same-instant event processes).
        assert process.value == 1


class TestConditionValue:
    def test_mapping_interface(self, kernel):
        def proc(k):
            t1 = k.timeout(1.0, "v1")
            result = yield k.all_of([t1])
            assert t1 in result
            assert result[t1] == "v1"
            assert len(result) == 1
            assert list(result) == [t1]
            assert result.todict() == {t1: "v1"}
            return True

        process = kernel.process(proc(kernel))
        kernel.run()
        assert process.value is True

    def test_missing_key_raises(self):
        value = ConditionValue()
        with pytest.raises(KeyError):
            _ = value["nope"]

    def test_repr(self, kernel):
        value = ConditionValue()
        assert "ConditionValue" in repr(value)

    def test_empty_value(self):
        value = ConditionValue()
        assert len(value) == 0
        assert list(value) == []
        assert value.todict() == {}

    def test_lists_events_in_construction_order(self, kernel):
        def proc(k):
            late = k.timeout(5.0, "late")
            early = k.timeout(1.0, "early")
            result = yield k.all_of([late, early])
            return list(result), result.todict()

        process = kernel.process(proc(kernel))
        kernel.run()
        (late, early), mapping = process.value
        assert (late.value, early.value) == ("late", "early")
        assert mapping == {late: "late", early: "early"}

    def test_any_of_value_holds_only_processed_events(self, kernel):
        def proc(k):
            fast = k.timeout(1.0, "fast")
            slow = k.timeout(9.0, "slow")
            result = yield k.any_of([slow, fast])
            return fast, slow, result

        process = kernel.process(proc(kernel))
        kernel.run()
        fast, slow, result = process.value
        assert fast in result
        assert slow not in result
        with pytest.raises(KeyError):
            _ = result[slow]

    def test_events_property_is_a_copy(self, kernel):
        first = kernel.timeout(1.0)
        condition = kernel.all_of([first])
        condition.events.append(kernel.timeout(2.0))
        assert condition.events == [first]


class TestNesting:
    def test_condition_of_conditions(self, kernel):
        def proc(k):
            inner1 = k.all_of([k.timeout(1.0), k.timeout(2.0)])
            inner2 = k.any_of([k.timeout(10.0), k.timeout(4.0)])
            yield k.all_of([inner1, inner2])
            return k.now

        process = kernel.process(proc(kernel))
        kernel.run()
        assert process.value == 4.0
