"""Composite events: wait for *all* or *any* of a set of events.

``AllOf`` fires once every constituent event has fired; ``AnyOf`` fires
as soon as the first one does.  Both fire with a :class:`ConditionValue`
mapping each *triggered* constituent event to its value, which lets the
waiting process inspect exactly which events completed.

A failure in any constituent event propagates to the condition (and is
thereby delivered to the waiting process).

Hot-path note: triggering pushes directly onto the kernel heap like
``Event.succeed``.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional

from repro.errors import SimulationError
from repro.sim.events import PENDING, Event, _NORMAL_KEY

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Kernel


class ConditionValue:
    """Ordered mapping of triggered events to their values."""

    __slots__ = ("events",)

    def __init__(self, events: Optional[List[Event]] = None) -> None:
        self.events: List[Event] = [] if events is None else events

    def __getitem__(self, event: Event) -> Any:
        if event not in self.events:
            raise KeyError(repr(event))
        return event._value

    def __contains__(self, event: Event) -> bool:
        return event in self.events

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def todict(self) -> Dict[Event, Any]:
        """Return a plain ``dict`` of event → value."""
        return {event: event._value for event in self.events}

    def __repr__(self) -> str:
        return f"<ConditionValue {self.todict()!r}>"


class Condition(Event):
    """Base class for :class:`AllOf` and :class:`AnyOf`."""

    __slots__ = ("_events", "_processed_count")

    def __init__(self, kernel: "Kernel", events: List[Event]) -> None:
        self.kernel = kernel
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self._cancelled = False
        for event in events:
            if event.kernel is not kernel:
                raise SimulationError(
                    "all events of a condition must share one kernel"
                )
        self._events = events
        self._processed_count = 0
        on_fire = self._on_fire
        count_event = self._count_event
        for event in events:
            if event.callbacks is None:
                # Already processed: account for it immediately.
                count_event(event)
            else:
                event.callbacks.append(on_fire)
        self._maybe_trigger()

    # -- hooks implemented by subclasses ------------------------------------

    def _satisfied(self) -> bool:
        raise NotImplementedError

    # -- internals -----------------------------------------------------------

    def _count_event(self, event: Event) -> None:
        if not event._ok:
            if self._value is PENDING:
                event._defused = True
                self.fail(event._value)
            return
        self._processed_count += 1

    def _on_fire(self, event: Event) -> None:
        if self._value is not PENDING:
            return
        self._count_event(event)
        self._maybe_trigger()

    def _maybe_trigger(self) -> None:
        if self._value is PENDING and self._satisfied():
            kernel = self.kernel
            # Fused succeed: the condition was pending by construction.
            self._ok = True
            self._value = ConditionValue(
                [event for event in self._events if event.callbacks is None]
            )
            kernel._sequence = sequence = kernel._sequence + 1
            kernel._live += 1
            heappush(kernel._heap, (kernel._now, _NORMAL_KEY | sequence, self))

    @property
    def events(self) -> List[Event]:
        """The constituent events, in construction order."""
        return list(self._events)


class AllOf(Condition):
    """Fires once *every* constituent event has been processed."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return self._processed_count >= len(self._events)


class AnyOf(Condition):
    """Fires once *any* constituent event has fired.

    An ``AnyOf`` over zero events fires immediately (vacuous truth
    mirrors SimPy semantics for ``AllOf``; for ``AnyOf`` we also fire
    immediately so empty fan-ins never deadlock).
    """

    __slots__ = ()

    def _satisfied(self) -> bool:
        if not self._events:
            return True
        return self._processed_count >= 1
