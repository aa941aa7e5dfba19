"""Generator-based simulation processes.

A :class:`Process` wraps a Python generator.  The generator *yields*
events to suspend; the kernel resumes it with the event's value (or
throws the event's exception into it) once the event is processed.  A
process is itself an event that fires when the generator terminates,
which makes ``yield other_process`` a natural join operation.

Hot-path notes: the generator's ``send``/``throw`` bound methods are
cached at creation so every resume skips two attribute lookups, and
process termination pushes directly onto the kernel heap (fused, like
``Event.succeed``).
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.errors import SimulationError
from repro.sim.events import PENDING, Event, Initialize, Interruption

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Kernel

ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """An active component of the simulation, driven by a generator.

    Create processes through :meth:`repro.sim.kernel.Kernel.process`
    rather than instantiating this class directly.
    """

    __slots__ = ("_generator", "_target", "name", "_send", "_throw")

    def __init__(
        self,
        kernel: "Kernel",
        generator: ProcessGenerator,
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        self.kernel = kernel
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self._cancelled = False
        self._generator = generator
        self._send = generator.send
        self._throw = generator.throw
        #: The event this process is currently waiting on (``None``
        #: before the first resume and after termination).
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        Initialize(kernel, self)

    @property
    def is_alive(self) -> bool:
        """``True`` while the underlying generator has not terminated."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`~repro.sim.events.Interrupt` into the process.

        The interrupt is delivered urgently at the current simulation
        time.  Interrupting a terminated process is an error.
        """
        Interruption(self, cause)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        kernel = self.kernel
        kernel._active_process = self
        send = self._send
        while True:
            if event._ok:
                try:
                    next_target = send(event._value)
                except StopIteration as stop:
                    self._terminate(ok=True, value=stop.value)
                    break
                except BaseException as exc:
                    self._terminate(ok=False, value=exc)
                    break
            else:
                # The event failed: throw its exception into the
                # generator.  Mark it defused -- the process consumed it.
                event._defused = True
                exception = event._value
                try:
                    next_target = self._throw(exception)
                except StopIteration as stop:
                    self._terminate(ok=True, value=stop.value)
                    break
                except BaseException as exc:
                    # Distinguish "the generator did not catch the
                    # exception" (propagate silently as a failure) from a
                    # new error raised by the generator.
                    self._terminate(ok=False, value=exc)
                    break

            if not isinstance(next_target, Event):
                self._terminate(
                    ok=False,
                    value=SimulationError(
                        f"process {self.name!r} yielded a non-event: "
                        f"{next_target!r}"
                    ),
                )
                break

            callbacks = next_target.callbacks
            if callbacks is not None:
                # Not yet processed: wait for it.
                callbacks.append(self._resume)
                self._target = next_target
                break

            # The yielded event was already processed; continue
            # immediately with its value within this same resume cycle.
            self._target = next_target
            event = next_target

        kernel._active_process = None

    def _terminate(self, ok: bool, value: Any) -> None:
        """Record the generator outcome and fire this process-as-event."""
        self._target = None
        self._ok = ok
        self._value = value
        kernel = self.kernel
        kernel._sequence = sequence = kernel._sequence + 1
        kernel._live += 1
        heappush(kernel._heap, (kernel._now, sequence, self))  # URGENT

    def __repr__(self) -> str:
        return f"<Process {self.name!r} at {id(self):#x}>"
