"""Equivalence suite: fast-path kernel vs the naive seed stepper.

The kernel hot path was rebuilt around packed heap keys, fused
trigger-and-schedule, lazy cancellation and batched same-timestamp
cascade draining.  These tests pin the rebuild to the original
semantics:

- :class:`ReferenceKernel` ports the seed kernel's run discipline —
  one :meth:`~repro.sim.kernel.Kernel.step` per iteration, the time
  bound checked per event — and serves as the executable
  specification.  Both kernels drain the *same* heap representation,
  so any divergence in callback order, clock values or process results
  is a real semantic difference, not a representation artefact.
- Property tests drive both kernels with randomized workloads
  (timeouts, process chains, conditions, token-store contention,
  stores, interrupts) and require the full observable traces to be
  identical.
"""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.kernel import Kernel
from repro.sim.store import Store

# -- naive reference (port of the seed run discipline) -----------------------


def _next_time(kernel):
    """Time of the next live event on ``kernel``'s heap, or ``inf``.

    Cancelled entries at the front of the heap are discarded first.
    """
    heap = kernel._heap
    while heap and heap[0][2]._cancelled:
        heapq.heappop(heap)
    return heap[0][0] if heap else float("inf")


class ReferenceKernel(Kernel):
    """Seed-port stepper: one event per iteration, no batching.

    The seed kernel had no ``cancel`` and ran via repeated
    ``step()`` with the ``until`` bound re-checked per event; this
    class reproduces exactly that control flow on top of the shared
    event structures.
    """

    __slots__ = ()

    def run(self, until=None):
        from repro.errors import SimulationError
        from repro.sim.events import Event

        if until is None:
            while self.queued_event_count:
                self.step()
            return None
        if isinstance(until, Event):
            if until.callbacks is None:
                if not until._ok and not until._defused:
                    raise until._value
                return until._value
            fired = []
            until.callbacks.append(fired.append)
            while self.queued_event_count and not fired:
                self.step()
            if not fired:
                raise SimulationError(
                    "simulation ran out of events before the until-event "
                    "fired"
                )
            if not until._ok:
                until._defused = True
                raise until._value
            return until._value
        until = float(until)
        if until < self._now:
            raise SimulationError(
                f"until={until!r} lies in the past (now={self._now!r})"
            )
        while _next_time(self) <= until:
            self.step()
        self._now = until
        return None


# -- randomized workloads run on both kernels --------------------------------


def _trace_timeout_tree(kernel, trace, delays):
    def spawner(k, remaining, label):
        for index, delay in enumerate(remaining):
            yield k.timeout(delay)
            trace.append(("tick", label, index, k.now))
        trace.append(("done", label, k.now))

    half = len(delays) // 2
    kernel.process(spawner(kernel, delays[:half], "a"))
    kernel.process(spawner(kernel, delays[half:], "b"))


def _trace_conditions(kernel, trace, delays):
    def worker(k):
        timeouts = [k.timeout(delay, value=index)
                    for index, delay in enumerate(delays)]
        result = yield k.all_of(timeouts)
        trace.append(("all", [result[t] for t in timeouts], k.now))
        more = [k.timeout(delay / 2) for delay in delays]
        first = yield k.any_of(more)
        trace.append(("any", len(first), k.now))

    kernel.process(worker(kernel))


def _trace_resources(kernel, trace, delays):
    # Capacity-2 contention: a store pre-filled with two slot tokens.
    slots = Store(kernel)
    for token in range(2):
        slots.put(token)

    def user(k, label, delay):
        token = yield slots.get()
        trace.append(("acquired", label, token, k.now))
        yield k.timeout(delay)
        slots.put(token)
        trace.append(("released", label, k.now))

    for index, delay in enumerate(delays):
        kernel.process(user(kernel, index, delay))


def _trace_store(kernel, trace, delays):
    store = Store(kernel, capacity=2)

    def producer(k):
        for index, delay in enumerate(delays):
            yield k.timeout(delay)
            yield store.put(index)

    def consumer(k):
        for _ in delays:
            item = yield store.get()
            trace.append(("got", item, k.now))

    kernel.process(producer(kernel))
    kernel.process(consumer(kernel))


def _trace_interrupts(kernel, trace, delays):
    from repro.sim.events import Interrupt

    def sleeper(k, label):
        try:
            yield k.timeout(1e9)
            trace.append(("overslept", label, k.now))
        except Interrupt as interrupt:
            trace.append(("interrupted", label, interrupt.cause, k.now))

    def waker(k, victims):
        for index, delay in enumerate(delays):
            yield k.timeout(delay)
            if index < len(victims):
                victims[index].interrupt(cause=index)

    victims = [kernel.process(sleeper(kernel, index))
               for index in range(min(3, len(delays)))]
    kernel.process(waker(kernel, victims))


_WORKLOADS = [
    _trace_timeout_tree,
    _trace_conditions,
    _trace_resources,
    _trace_store,
    _trace_interrupts,
]

_DELAYS = st.lists(
    st.floats(min_value=0.0, max_value=100.0,
              allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=12,
)


@given(
    workload_index=st.integers(min_value=0, max_value=len(_WORKLOADS) - 1),
    delays=_DELAYS,
    until=st.one_of(
        st.none(), st.floats(min_value=0.0, max_value=150.0)
    ),
)
@settings(max_examples=120, deadline=None)
def test_fast_kernel_matches_reference_stepper(workload_index, delays, until):
    """Identical observable traces, clocks and queue counts under any
    workload and run mode."""
    workload = _WORKLOADS[workload_index]
    traces = []
    clocks = []
    for kernel_class in (Kernel, ReferenceKernel):
        kernel = kernel_class()
        trace = []
        workload(kernel, trace, list(delays))
        kernel.run(until=until)
        traces.append(trace)
        clocks.append((kernel.now, kernel.queued_event_count))
    assert traces[0] == traces[1]
    assert clocks[0] == clocks[1]


# -- callbacks pair with their own event ------------------------------------


@given(count=st.integers(min_value=1, max_value=200))
@settings(max_examples=30, deadline=None)
def test_no_stale_callbacks_across_recycling(count):
    """A callback attached to one timeout fires once, for that timeout's
    own value, and never for a later timeout of the same process."""
    kernel = Kernel()
    fired = []

    def ticker(k):
        for index in range(count):
            timeout = k.timeout(1.0, value=index)
            timeout.callbacks.append(
                lambda event, index=index: fired.append(
                    (index, event._value)
                )
            )
            yield timeout

    kernel.process(ticker(kernel))
    kernel.run()
    assert fired == [(index, index) for index in range(count)]


# -- plain allocation: a drained event keeps its state ----------------------


def test_referenced_events_are_never_recycled():
    """Timeouts held by user code keep their identities and values
    after the kernel has processed them and moved on."""
    kernel = Kernel()
    held = []

    def holder(k):
        for index in range(30):
            timeout = k.timeout(1.0, value=index)
            held.append(timeout)
            yield timeout

    kernel.process(holder(kernel))
    kernel.run()
    assert len({id(timeout) for timeout in held}) == len(held)
    assert [timeout.value for timeout in held] == list(range(30))
    assert all(timeout.processed and timeout.ok for timeout in held)


def test_new_timeouts_start_clean_after_churn():
    """A timeout made after heavy churn has fresh state: no callbacks
    inherited, its own value, not cancelled, scheduled at its delay."""
    kernel = Kernel()

    def ticker(k):
        for _ in range(50):
            timeout = k.timeout(1.0, value="old")
            timeout.callbacks.append(lambda event: None)
            yield timeout

    kernel.process(ticker(kernel))
    kernel.run()
    fresh = kernel.timeout(3.0, value="v")
    assert fresh.callbacks == []
    assert fresh.value == "v"
    assert not fresh._cancelled
    assert not fresh.processed
    assert _next_time(kernel) == kernel.now + 3.0


def test_finished_processes_keep_their_outcome():
    """Short-lived processes keep their return values and state after
    they end, however many more processes start afterwards."""
    kernel = Kernel()
    finished = []

    def short(k, index):
        yield k.timeout(1.0)
        return index

    def spawner(k):
        for index in range(40):
            process = k.process(short(k, index))
            finished.append(process)
            yield process

    kernel.process(spawner(kernel))
    kernel.run()
    assert [process.value for process in finished] == list(range(40))
    assert not any(process.is_alive for process in finished)
    revived = kernel.process(short(kernel, 99))
    assert revived not in finished
    assert revived.is_alive
    kernel.run()
    assert revived.value == 99
    assert finished[0].value == 0


def test_condition_values_survive_later_conditions():
    """A held ``ConditionValue`` still maps the events it fired with
    after many later conditions have fired."""
    kernel = Kernel()
    values = []

    def waiter(k):
        for index in range(20):
            first = k.timeout(1.0, value=index)
            second = k.timeout(2.0, value=-index)
            values.append((first, second, (yield k.all_of([first, second]))))

    kernel.process(waiter(kernel))
    kernel.run()
    for index, (first, second, value) in enumerate(values):
        assert list(value) == [first, second]
        assert value.todict() == {first: index, second: -index}
