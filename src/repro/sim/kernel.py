"""The discrete-event simulation kernel.

The kernel owns the simulated clock and the event heap.  Components
create events and processes through the kernel's factory methods and the
kernel advances time by popping triggered events in ``(time, priority,
sequence)`` order and running their callbacks.

The design is deliberately simpy-like: processes are generators that
yield events, and the full simulation is deterministic for a fixed event
schedule (ties are broken by insertion order).

Fast-path design (docs/architecture.md, "Kernel fast path"):

- Heap entries are ``(time, key, event)`` 3-tuples with the packed int
  key from :mod:`repro.sim.events` — ordering is identical to the old
  ``(time, priority, sequence, event)`` 4-tuples, one comparison level
  cheaper.
- :meth:`run` drains events through a single inlined loop instead of a
  :meth:`step` method call per event, retiring whole same-timestamp
  cascades per outer iteration (the ``until`` bound is checked once per
  distinct timestamp, not once per event).
- Cancelled entries (:meth:`cancel`, :meth:`Timeout.cancel`) are
  *lazily deleted*: they stay on the heap and are skipped at pop time.
  A live-entry counter keeps :attr:`queued_event_count` truthful.
- Events are plain allocations: pooling them measured no gain (see
  docs/architecture.md).
- :meth:`reserve` takes the heap key a timeout created now would get,
  and :meth:`timeout_at` pushes the timeout there later.  A model with
  many far-future wake-ups (a trace's arrivals) keeps only the next
  one on the heap, in the order eager timeouts would have had
  (docs/architecture.md, "Lazy trace arrivals").
"""

from __future__ import annotations

import heapq
from typing import Any, Iterable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.conditions import AllOf, AnyOf
from repro.sim.events import KEY_SHIFT, NORMAL, PENDING, Event, Timeout
from repro.sim.process import Process, ProcessGenerator

#: Heap entry: (time, packed priority/sequence key, event).
_HeapEntry = Tuple[float, int, Event]

#: A reserved heap position: (time, packed priority/sequence key).  See
#: :meth:`Kernel.reserve`.
Slot = Tuple[float, int]

_INFINITY = float("inf")


class EmptySchedule(SimulationError):
    """Raised internally when the event heap runs dry."""


class Kernel:
    """Discrete-event simulation kernel with a floating-point clock.

    Parameters
    ----------
    initial_time:
        Starting value of the simulated clock (default ``0.0``).
        Experiments replaying traces may start at an arbitrary epoch.
    """

    __slots__ = ("_now", "_heap", "_sequence", "_active_process", "_live")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._heap: List[_HeapEntry] = []
        self._sequence = 0
        self._active_process: Optional[Process] = None
        #: Number of scheduled-and-not-cancelled entries on the heap.
        self._live = 0

    # -- clock & introspection --------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    @property
    def queued_event_count(self) -> int:
        """Number of triggered-but-unprocessed events on the heap.

        Lazily-deleted (cancelled) entries are not counted.
        """
        return self._live

    # -- factories ---------------------------------------------------------

    def event(self) -> Event:
        """Create a new pending :class:`~repro.sim.events.Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def reserve(self, delay: float) -> Slot:
        """Reserve the heap slot a ``timeout(delay)`` created now would
        take, without scheduling anything.

        The slot takes the next sequence number, exactly as the timeout
        would, so a :meth:`timeout_at` pushed on it later is ordered
        among same-time events as if it had been created now.  Nothing
        is on the heap until then: :attr:`queued_event_count` ignores
        reserved slots.  Push each slot at most once, and no later than
        the slot's own position comes up.

        >>> kernel = Kernel()
        >>> slot = kernel.reserve(5.0)
        >>> eager = kernel.timeout(5.0, value="eager")
        >>> kernel.queued_event_count
        1
        >>> late = kernel.timeout_at(slot, value="reserved")
        >>> fired = []
        >>> for event in (eager, late):
        ...     event.callbacks.append(lambda e: fired.append(e.value))
        >>> kernel.run()
        >>> fired
        ['reserved', 'eager']
        """
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        self._sequence = sequence = self._sequence + 1
        return (self._now + delay, (NORMAL << KEY_SHIFT) | sequence)

    def timeout_at(self, slot: Slot, value: Any = None) -> Timeout:
        """Push a :class:`~repro.sim.events.Timeout` at a slot from
        :meth:`reserve`; no new sequence number is taken.  A slot whose
        time has already passed is rejected."""
        time, key = slot
        if time < self._now:
            raise SimulationError(
                f"slot at t={time!r} lies in the past (now={self._now!r})"
            )
        # Timeout.__init__ would take a fresh sequence number.
        timeout = Timeout.__new__(Timeout)
        timeout.kernel = self
        timeout.callbacks = []
        timeout.delay = time - self._now
        timeout._ok = True
        timeout._value = value
        timeout._defused = False
        timeout._cancelled = False
        self._live += 1
        heapq.heappush(self._heap, (time, key, timeout))
        return timeout

    def process(
        self, generator: ProcessGenerator, name: Optional[str] = None
    ) -> Process:
        """Start a new process driving ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires once every event in ``events`` has fired."""
        return AllOf(self, list(events))

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires once any event in ``events`` has fired."""
        return AnyOf(self, list(events))

    # -- scheduling & execution ---------------------------------------------

    def schedule(
        self, event: Event, priority: int = NORMAL, delay: float = 0.0
    ) -> None:
        """Place a triggered event on the heap ``delay`` from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay!r}")
        self._sequence = sequence = self._sequence + 1
        self._live += 1
        heapq.heappush(
            self._heap,
            (self._now + delay, (priority << KEY_SHIFT) | sequence, event),
        )

    def cancel(self, event: Event) -> None:
        """Lazily delete a scheduled event from the heap.

        The entry stays on the heap but is skipped — without running
        callbacks or advancing the clock — when it surfaces.  Cancelling
        twice is a no-op; cancelling an event that is not scheduled (or
        was already processed) is an error.
        """
        if event._cancelled:
            return
        if event.callbacks is None:
            raise SimulationError(f"cannot cancel {event!r}: already processed")
        if event._value is PENDING:
            raise SimulationError(f"cannot cancel {event!r}: not scheduled")
        event._cancelled = True
        self._live -= 1

    def step(self) -> None:
        """Process the single next live event; raise if none remain.

        :meth:`run` does not go through this method (it drains the heap
        through an inlined loop); ``step`` is the single-event API for
        tests and interactive use.
        """
        heap = self._heap
        pop = heapq.heappop
        while True:
            try:
                now, _, event = pop(heap)
            except IndexError:
                raise EmptySchedule("no more events scheduled") from None
            if not event._cancelled:
                break

        self._now = now
        self._live -= 1
        callbacks = event.callbacks
        event.callbacks = None
        assert callbacks is not None
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            # A failure nobody consumed: crash the simulation loudly so
            # bugs in models do not pass silently.
            exc = event._value
            raise exc

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None``
                run until no events remain.
            a number
                run until the clock reaches that time (the clock is set
                to exactly ``until`` even if no event fires then).
            an :class:`~repro.sim.events.Event`
                run until that event is processed and return its value.
        """
        if until is None:
            self._drain(_INFINITY, None)
            return None
        if isinstance(until, Event):
            return self._run_until_event(until)
        return self._run_until_time(float(until))

    def _drain(self, limit: float, stop: Optional[list]) -> None:
        """Inlined event loop: process live events while the head's time
        is within ``limit``, a whole same-timestamp cascade per outer
        iteration.  ``stop`` (when given) aborts after the event that
        filled it was processed."""
        heap = self._heap
        pop = heapq.heappop
        while heap:
            if heap[0][2]._cancelled:
                pop(heap)
                continue
            now = heap[0][0]
            if now > limit:
                return
            self._now = now
            # Retire the entire cascade scheduled for this timestamp.
            while heap and heap[0][0] == now:
                _, _, event = pop(heap)
                if event._cancelled:
                    continue
                self._live -= 1
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    # A failure nobody consumed: crash the simulation
                    # loudly so bugs in models do not pass silently.
                    raise event._value
                if stop is not None and stop:
                    return

    def _run_until_time(self, until: float) -> None:
        if until < self._now:
            raise SimulationError(
                f"until={until!r} lies in the past (now={self._now!r})"
            )
        self._drain(until, None)
        self._now = until

    def _run_until_event(self, until: Event) -> Any:
        if until.callbacks is None:
            # Already processed.
            if not until._ok and not until._defused:
                raise until._value
            return until._value
        stop: list = []
        until.callbacks.append(stop.append)
        self._drain(_INFINITY, stop)
        if not stop:
            raise SimulationError(
                "simulation ran out of events before the until-event fired"
            )
        if not until._ok:
            until._defused = True
            raise until._value
        return until._value

    def __repr__(self) -> str:
        return f"<Kernel t={self._now!r} queued={self._live}>"
