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

from repro.sim.conditions import AllOf, AnyOf
from repro.sim.events import NORMAL, Event, Interrupt, Timeout
from repro.sim.kernel import Kernel
from repro.sim.monitor import SampleSeries, TimeWeightedValue
from repro.sim.process import Process
from repro.sim.rng import RandomStreams
from repro.sim.store import Store

__all__ = [
    # Kernel
    "Kernel",
    "RandomStreams",
    # Events and processes
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "NORMAL",
    "Process",
    "Timeout",
    # Resources and monitors
    "SampleSeries",
    "Store",
    "TimeWeightedValue",
]
