"""Discrete-event simulation kernel (written from scratch for repro).

Public surface: a :class:`Kernel` with timeouts, generator processes,
``all_of``/``any_of`` conditions and a FIFO :class:`Store`.

>>> from repro.sim import Kernel
>>> kernel = Kernel()
>>> def ping(kernel):
...     yield kernel.timeout(1.0)
...     return "pong"
>>> proc = kernel.process(ping(kernel))
>>> kernel.run()
>>> proc.value, kernel.now
('pong', 1.0)
"""

from repro.sim.conditions import AllOf, AnyOf, Condition, ConditionValue
from repro.sim.events import (
    NORMAL,
    URGENT,
    Event,
    Interrupt,
    Timeout,
)
from repro.sim.kernel import EmptySchedule, Kernel
from repro.sim.monitor import SampleSeries, TimeWeightedValue
from repro.sim.process import Process
from repro.sim.rng import RandomStreams
from repro.sim.store import Store, StoreGet, StorePut

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "ConditionValue",
    "EmptySchedule",
    "Event",
    "Interrupt",
    "Kernel",
    "NORMAL",
    "Process",
    "RandomStreams",
    "SampleSeries",
    "Store",
    "StoreGet",
    "StorePut",
    "Timeout",
    "TimeWeightedValue",
    "URGENT",
]
