"""Core event primitives for the discrete-event simulation kernel.

The kernel is generator-based in the style popularised by SimPy, but
implemented from scratch for this project.  An :class:`Event` is a
one-shot occurrence: it starts *pending*, becomes *triggered* once a
value (or an exception) is attached and it is placed on the kernel's
event heap, and becomes *processed* once the kernel has popped it and
run its callbacks.  Processes (see :mod:`repro.sim.process`) suspend by
yielding events and are resumed through those callbacks.

Hot-path design notes (see docs/architecture.md, "Kernel fast path"):

- Every event class is ``__slots__``-compacted and triggering is *fused*
  with scheduling: ``succeed``/``fail``/``trigger`` push directly onto
  the kernel's heap instead of going through a ``Kernel.schedule`` call.
- Heap entries are ``(time, key, event)`` where ``key`` packs
  ``(priority, sequence)`` into a single int (``priority << 56 | seq``),
  so tie-breaking costs one integer comparison instead of two tuple
  elements.  The packed order is identical to the old
  ``(time, priority, sequence)`` tuples, which keeps event ordering —
  and therefore every simulation output — byte-identical.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, List, Optional

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.sim.kernel import Kernel

#: Sentinel stored in :attr:`Event._value` while the event is pending.
PENDING = object()

#: Scheduling priority for events that must run before ordinary events
#: scheduled at the same timestamp (interrupts, process start and end).
URGENT = 0

#: Default scheduling priority.
NORMAL = 1

#: Bits reserved for the sequence number inside a packed heap key.
#: ``priority << KEY_SHIFT | sequence`` orders exactly like the tuple
#: ``(priority, sequence)`` for any sequence below 2**56 — far beyond
#: the event count of any feasible simulation.
KEY_SHIFT = 56

_NORMAL_KEY = NORMAL << KEY_SHIFT


class Event:
    """A one-shot occurrence in simulated time.

    Parameters
    ----------
    kernel:
        The kernel this event belongs to.  All times and orderings are
        relative to this kernel's clock.
    """

    __slots__ = ("kernel", "callbacks", "_value", "_ok", "_defused",
                 "_cancelled")

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        #: Callables invoked (with this event) when the event is
        #: processed.  ``None`` once processing has happened.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False
        self._cancelled: bool = False

    # -- state inspection -------------------------------------------------

    @property
    def triggered(self) -> bool:
        """Whether a value has been attached and the event scheduled."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """Whether the kernel already ran this event's callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """Whether the event succeeded.  Only meaningful once triggered."""
        if self._value is PENDING:
            raise SimulationError("event value is not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event was triggered with (or its exception)."""
        if self._value is PENDING:
            raise SimulationError("event value is not yet available")
        return self._value

    def defuse(self) -> None:
        """Mark a failed event as handled so the kernel will not re-raise."""
        self._defused = True

    # -- triggering --------------------------------------------------------

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``.

        Returns the event itself so calls can be chained or returned.
        """
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        kernel = self.kernel
        kernel._sequence = sequence = kernel._sequence + 1
        kernel._live += 1
        heappush(kernel._heap, (kernel._now, _NORMAL_KEY | sequence, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception will be thrown into every process waiting on this
        event.  If no process consumes it, the kernel re-raises it when
        the event is processed.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        kernel = self.kernel
        kernel._sequence = sequence = kernel._sequence + 1
        kernel._live += 1
        heappush(kernel._heap, (kernel._now, _NORMAL_KEY | sequence, self))
        return self

    def __repr__(self) -> str:
        state = (
            "processed"
            if self.processed
            else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay in simulated time."""

    __slots__ = ("delay",)

    def __init__(self, kernel: "Kernel", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        self.kernel = kernel
        self.callbacks = []
        self.delay = delay
        self._ok = True
        self._value = value
        self._defused = False
        self._cancelled = False
        kernel._sequence = sequence = kernel._sequence + 1
        kernel._live += 1
        heappush(
            kernel._heap,
            (kernel._now + delay, _NORMAL_KEY | sequence, self),
        )

    def cancel(self) -> None:
        """Withdraw the timeout from the schedule before it fires.

        The heap entry is *lazily deleted*: it stays on the heap but is
        skipped (without running callbacks or advancing the clock) when
        it reaches the front.  ``queued_event_count`` ignores
        cancelled entries, so introspection stays truthful.
        """
        self.kernel.cancel(self)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay!r} at {id(self):#x}>"


class Initialize(Event):
    """Internal event used to start a process at its creation instant."""

    __slots__ = ()

    def __init__(self, kernel: "Kernel", process: Any) -> None:
        self.kernel = kernel
        self.callbacks = [process._resume]
        self._ok = True
        self._value = None
        self._defused = False
        self._cancelled = False
        kernel._sequence = sequence = kernel._sequence + 1
        kernel._live += 1
        heappush(kernel._heap, (kernel._now, sequence, self))  # URGENT


class Interruption(Event):
    """Internal event that delivers an :class:`Interrupt` to a process.

    Scheduled urgently so an interrupt issued at time *t* is delivered
    before ordinary events of time *t* are processed.
    """

    __slots__ = ("process",)

    def __init__(self, process: Any, cause: Any) -> None:
        super().__init__(process.kernel)
        if process.processed:
            raise SimulationError(
                f"cannot interrupt {process!r}: it has already terminated"
            )
        if process is self.kernel.active_process:
            raise SimulationError("a process cannot interrupt itself")
        self.process = process
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True  # the throw into the generator consumes it
        self.callbacks.append(self._deliver)
        self.kernel.schedule(self, priority=URGENT)

    def _deliver(self, event: "Event") -> None:
        process = self.process
        if process.processed:
            # The process terminated between scheduling and delivery of
            # the interrupt; nothing is left to interrupt.
            return
        # Detach the process from whatever it is currently waiting on so
        # that the pending event does not resume it a second time.
        target = process._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(process._resume)
            except ValueError:
                pass
        process._resume(self)


class Interrupt(Exception):
    """Raised inside a process when :meth:`Process.interrupt` is called."""

    @property
    def cause(self) -> Any:
        """The cause passed to :meth:`Process.interrupt`."""
        return self.args[0]

    def __str__(self) -> str:
        return f"Interrupt({self.cause!r})"
