"""Tests for the FIFO Store and the token-store slot-pool pattern."""

import pytest

from repro.errors import SimulationError
from repro.sim.events import Interrupt
from repro.sim.kernel import Kernel
from repro.sim.store import Store


class TestStore:
    def test_put_then_get(self, kernel):
        store = Store(kernel)

        def proc(k):
            yield store.put("item")
            value = yield store.get()
            return value

        process = kernel.process(proc(kernel))
        kernel.run()
        assert process.value == "item"

    def test_get_blocks_until_put(self, kernel):
        store = Store(kernel)
        log = []

        def consumer(k):
            value = yield store.get()
            log.append((value, k.now))

        def producer(k):
            yield k.timeout(4.0)
            yield store.put("late")

        kernel.process(consumer(kernel))
        kernel.process(producer(kernel))
        kernel.run()
        assert log == [("late", 4.0)]

    def test_fifo_order(self, kernel):
        store = Store(kernel)
        received = []

        def producer(k):
            for item in (1, 2, 3):
                yield store.put(item)

        def consumer(k):
            for _ in range(3):
                value = yield store.get()
                received.append(value)

        kernel.process(producer(kernel))
        kernel.process(consumer(kernel))
        kernel.run()
        assert received == [1, 2, 3]

    def test_capacity_blocks_put(self, kernel):
        store = Store(kernel, capacity=1)
        log = []

        def producer(k):
            yield store.put("a")
            log.append(("a-stored", k.now))
            yield store.put("b")
            log.append(("b-stored", k.now))

        def consumer(k):
            yield k.timeout(5.0)
            yield store.get()

        kernel.process(producer(kernel))
        kernel.process(consumer(kernel))
        kernel.run()
        assert log == [("a-stored", 0.0), ("b-stored", 5.0)]

    def test_invalid_capacity(self, kernel):
        with pytest.raises(SimulationError):
            Store(kernel, capacity=0)

    def test_size_property(self, kernel):
        store = Store(kernel)
        store.put("x")
        store.put("y")
        kernel.run()
        assert store.size == 2

    def test_cancel_get(self, kernel):
        store = Store(kernel)
        get_event = store.get()
        get_event.cancel()
        store.put("item")
        kernel.run()
        assert store.size == 1  # nobody consumed it

    def test_cancel_put(self, kernel):
        store = Store(kernel, capacity=1)
        store.put("a")
        blocked = store.put("b")
        blocked.cancel()

        def consumer(k):
            value = yield store.get()
            return value

        process = kernel.process(consumer(kernel))
        kernel.run()
        assert process.value == "a"
        assert store.size == 0

    def test_capacity_defaults_to_unbounded(self, kernel):
        store = Store(kernel)
        puts = [store.put(index) for index in range(100)]
        assert store.capacity is None
        assert all(put.triggered for put in puts)
        assert store.items == list(range(100))

    def test_negative_capacity_rejected(self, kernel):
        with pytest.raises(SimulationError):
            Store(kernel, capacity=-1)

    def test_put_fires_with_none_and_get_with_the_item(self, kernel):
        store = Store(kernel)
        put = store.put("item")
        get = store.get()
        kernel.run()
        assert (put.ok, put.value) == (True, None)
        assert (get.ok, get.value) == (True, "item")

    def test_blocked_gets_served_in_issue_order(self, kernel):
        store = Store(kernel)
        received = []

        def consumer(k, label):
            value = yield store.get()
            received.append((label, value, k.now))

        def producer(k):
            yield k.timeout(2.0)
            for item in ("a", "b", "c"):
                yield store.put(item)

        for label in range(3):
            kernel.process(consumer(kernel, label))
        kernel.process(producer(kernel))
        kernel.run()
        assert received == [(0, "a", 2.0), (1, "b", 2.0), (2, "c", 2.0)]

    def test_blocked_puts_accepted_in_issue_order(self, kernel):
        store = Store(kernel, capacity=1)
        store.put("first")
        blocked = [store.put(label) for label in ("p0", "p1", "p2")]
        assert not any(put.triggered for put in blocked)
        received = []

        def consumer(k):
            for _ in range(4):
                yield k.timeout(1.0)
                value = yield store.get()
                received.append(value)

        kernel.process(consumer(kernel))
        kernel.run()
        assert received == ["first", "p0", "p1", "p2"]
        assert store.size == 0

    def test_get_frees_a_slot_for_a_blocked_put_at_once(self, kernel):
        store = Store(kernel, capacity=1)
        store.put("a")
        blocked = store.put("b")
        assert not blocked.triggered
        store.get()
        # Accepted in the same call, not at a later instant.
        assert blocked.triggered
        assert store.items == ["b"]

    def test_cancelled_get_is_skipped_by_the_next_put(self, kernel):
        store = Store(kernel)
        withdrawn = store.get()
        waiting = store.get()
        withdrawn.cancel()
        store.put("item")
        kernel.run()
        assert not withdrawn.triggered
        assert waiting.value == "item"

    def test_cancel_of_a_served_get_is_a_noop(self, kernel):
        store = Store(kernel)
        store.put("item")
        get = store.get()
        get.cancel()
        kernel.run()
        assert get.value == "item"
        assert store.size == 0

    def test_repr_counts_items_and_waiters(self, kernel):
        store = Store(kernel, capacity=1)
        store.put("a")
        store.put("b")
        assert repr(store) == "<Store items=1 puts=1 gets=0>"
        drained = Store(kernel)
        drained.get()
        assert repr(drained) == "<Store items=0 puts=0 gets=1>"


def _token_store(kernel, count):
    """A capacity-``count`` slot pool: a store holding ``count`` tokens."""
    slots = Store(kernel)
    for token in range(count):
        slots.put(token)
    return slots


def hold(kernel, slots, duration, log, tag):
    """Helper process: take a token, hold it for ``duration``, return it."""
    token = yield slots.get()
    log.append(("acquire", tag, token, kernel.now))
    try:
        yield kernel.timeout(duration)
    finally:
        slots.put(token)
    log.append(("release", tag, token, kernel.now))


class TestTokenStore:
    """A store pre-filled with N tokens is a capacity-N slot pool:
    ``get`` acquires a slot and ``put`` returns it."""

    def test_grants_up_to_the_token_count(self, kernel):
        slots = _token_store(kernel, 2)
        log = []
        for tag in ("a", "b", "c"):
            kernel.process(hold(kernel, slots, 5.0, log, tag))
        kernel.run()
        acquires = [entry for entry in log if entry[0] == "acquire"]
        assert acquires == [
            ("acquire", "a", 0, 0.0),
            ("acquire", "b", 1, 0.0),
            ("acquire", "c", 0, 5.0),
        ]

    def test_fifo_service_order(self, kernel):
        slots = _token_store(kernel, 1)
        log = []
        for tag in ("first", "second", "third"):
            kernel.process(hold(kernel, slots, 1.0, log, tag))
        kernel.run()
        order = [(tag, t) for op, tag, _, t in log if op == "acquire"]
        assert order == [("first", 0.0), ("second", 1.0), ("third", 2.0)]

    def test_size_counts_free_slots(self, kernel):
        slots = _token_store(kernel, 3)
        log = []
        kernel.process(hold(kernel, slots, 10.0, log, "x"))
        kernel.run(until=1.0)
        assert slots.size == 2
        kernel.run()
        assert slots.size == 3

    def test_cancelled_waiter_takes_no_token(self, kernel):
        slots = _token_store(kernel, 1)
        log = []

        def canceller(k):
            request = slots.get()  # queued behind the holder
            yield k.timeout(1.0)
            request.cancel()
            log.append(("cancelled", k.now))

        kernel.process(hold(kernel, slots, 5.0, log, "holder"))
        kernel.process(canceller(kernel))
        kernel.process(hold(kernel, slots, 1.0, log, "late"))
        kernel.run()
        assert ("cancelled", 1.0) in log
        assert ("acquire", "late", 0, 5.0) in log
        assert slots.items == [0]

    def test_token_comes_back_when_the_holder_raises(self, kernel):
        slots = _token_store(kernel, 1)

        def failer(k):
            token = yield slots.get()
            try:
                raise ValueError("inside")
            finally:
                slots.put(token)

        process = kernel.process(failer(kernel))
        process.callbacks.append(lambda event: event.defuse())
        kernel.run()
        assert not process.ok
        assert slots.items == [0]

    def test_interrupted_waiter_withdraws_its_get(self, kernel):
        slots = _token_store(kernel, 1)
        log = []

        def impatient(k):
            request = slots.get()
            try:
                token = yield request
            except Interrupt:
                request.cancel()
                log.append(("gave-up", k.now))
                return
            slots.put(token)

        def waker(k, victim):
            yield k.timeout(2.0)
            victim.interrupt()

        kernel.process(hold(kernel, slots, 5.0, log, "holder"))
        victim = kernel.process(impatient(kernel))
        kernel.process(waker(kernel, victim))
        kernel.process(hold(kernel, slots, 1.0, log, "next"))
        kernel.run()
        assert ("gave-up", 2.0) in log
        assert ("acquire", "next", 0, 5.0) in log
        assert slots.items == [0]

    def test_returned_token_goes_to_the_longest_waiter(self, kernel):
        slots = _token_store(kernel, 2)
        log = []
        kernel.process(hold(kernel, slots, 3.0, log, "short"))
        kernel.process(hold(kernel, slots, 9.0, log, "long"))
        for tag in ("w1", "w2"):
            kernel.process(hold(kernel, slots, 1.0, log, tag))
        kernel.run()
        acquires = [entry[1:] for entry in log if entry[0] == "acquire"]
        assert acquires == [
            ("short", 0, 0.0),
            ("long", 1, 0.0),
            ("w1", 0, 3.0),
            ("w2", 0, 4.0),
        ]
