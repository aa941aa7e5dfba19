"""Time-weighted observation of simulation state.

:class:`TimeWeightedValue` tracks a piecewise-constant quantity (e.g.
"busy nodes") and integrates it over simulated time, which is what
utilisation metrics need.  :class:`SampleSeries` collects point samples
(e.g. per-job wait times) with summary statistics.  Both are pure
bookkeeping — no kernel interaction beyond reading the clock.

Hot-path notes: sample series append into a compact ``array('d')`` and
fold summary statistics lazily (sequentially, in arrival order, so the
folded mean/variance are bit-identical to eager per-record folding),
and the time-weighted integrator skips accumulation for
same-timestamp updates.  Both classes are ``__slots__``-compacted.
"""

from __future__ import annotations

import math
from array import array
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Kernel


class RunningStats:
    """Constant-memory accumulator of count/total/mean/variance.

    Welford's online algorithm, with the Chan et al. pairwise rule in
    :meth:`merge` so per-shard accumulators from a parallel sweep can be
    combined without revisiting samples.  Backs the O(1) summary
    properties of :class:`SampleSeries` and the sweep engine's
    per-point timing summaries (re-exported as
    ``repro.metrics.stats.RunningStats``).
    """

    __slots__ = ("count", "total", "mean", "_m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        """Fold one observation into the summary (O(1))."""
        value = float(value)
        self.count += 1
        self.total += value
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def variance(self) -> float:
        """Population variance (0 for fewer than two observations)."""
        if self.count < 2:
            return 0.0
        return max(self._m2, 0.0) / self.count

    @property
    def stdev(self) -> float:
        """Population standard deviation."""
        return math.sqrt(self.variance)

    def __repr__(self) -> str:
        return (
            f"<RunningStats n={self.count} mean={self.mean:.4g} "
            f"stdev={self.stdev:.4g}>"
        )


class TimeWeightedValue:
    """A piecewise-constant value integrated over simulated time.

    History recording is opt-in (``record_history=True``): the busy-node
    and device counters live on every allocation hot path, and the
    integral needs only the running sum, so the default keeps
    :meth:`set` allocation-free instead of growing an unread step list
    for the whole simulation.
    """

    __slots__ = ("kernel", "_value", "_start_time", "_last_change",
                 "_integral", "history")

    def __init__(
        self,
        kernel: "Kernel",
        initial: float = 0.0,
        record_history: bool = False,
    ) -> None:
        self.kernel = kernel
        self._value = float(initial)
        self._start_time = kernel.now
        self._last_change = kernel.now
        self._integral = 0.0
        #: Full (time, new_value) step history; ``None`` unless
        #: ``record_history`` was requested at construction.
        self.history: Optional[List[Tuple[float, float]]] = (
            [(kernel.now, float(initial))] if record_history else None
        )

    @property
    def value(self) -> float:
        """Current value."""
        return self._value

    def set(self, value: float) -> None:
        """Step the tracked quantity to ``value`` at the current time."""
        now = self.kernel._now
        if now != self._last_change:
            self._integral += self._value * (now - self._last_change)
            self._last_change = now
        self._value = float(value)
        if self.history is not None:
            self.history.append((now, self._value))

    def add(self, delta: float) -> None:
        """Increment the tracked quantity by ``delta``."""
        self.set(self._value + delta)

    def integral(self, until: Optional[float] = None) -> float:
        """Time integral of the value from creation until ``until`` (or now)."""
        end = self.kernel.now if until is None else until
        if end < self._last_change:
            raise SimulationError("integral endpoint precedes last change")
        return self._integral + self._value * (end - self._last_change)

    def time_average(self, until: Optional[float] = None) -> float:
        """Mean value over the observation window (0 if the window is empty)."""
        end = self.kernel.now if until is None else until
        span = end - self._start_time
        if span <= 0:
            return self._value
        return self.integral(until=end) / span

    def __repr__(self) -> str:
        return f"<TimeWeightedValue value={self._value!r}>"


class SampleSeries:
    """Point samples with amortised summary statistics.

    Observations append into a compact ``array('d')`` — a C-level
    append, no per-sample Python arithmetic.  Summary properties
    (``total``/``mean``/``stdev``/extremes) fold outstanding samples
    into a :class:`RunningStats` accumulator on first access, strictly
    in arrival order, so the folded results are bit-identical to the
    previous eager per-record folding.  The raw samples are kept for
    order statistics (:meth:`percentile`).
    """

    __slots__ = ("name", "_samples", "_stats", "_folded")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._samples = array("d")
        self._stats = RunningStats()
        #: Number of leading samples already folded into ``_stats``.
        self._folded = 0

    def record(self, value: float) -> None:
        """Append one observation (O(1), no stats arithmetic)."""
        self._samples.append(value)

    @property
    def samples(self) -> List[float]:
        """The recorded observations, in arrival order, as a list."""
        return list(self._samples)

    def _fold(self) -> RunningStats:
        """Fold any outstanding samples into the running summary."""
        samples = self._samples
        folded = self._folded
        if folded < len(samples):
            add = self._stats.add
            for value in samples[folded:]:
                add(value)
            self._folded = len(samples)
        return self._stats

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def total(self) -> float:
        return self._fold().total

    @property
    def mean(self) -> float:
        if not self._samples:
            return 0.0
        return self._fold().mean

    @property
    def maximum(self) -> float:
        return self._fold().maximum if self._samples else 0.0

    @property
    def minimum(self) -> float:
        return self._fold().minimum if self._samples else 0.0

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile of the samples, ``q`` in [0, 100]."""
        if not 0.0 <= q <= 100.0:
            raise SimulationError(f"percentile out of range: {q!r}")
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        if len(ordered) == 1:
            return ordered[0]
        rank = (q / 100.0) * (len(ordered) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return ordered[low]
        fraction = rank - low
        # a + f*(b-a) is exact when a == b, unlike the two-product form.
        return ordered[low] + fraction * (ordered[high] - ordered[low])

    @property
    def stdev(self) -> float:
        """Population standard deviation (0 for fewer than two samples)."""
        return self._fold().stdev

    def __repr__(self) -> str:
        return (
            f"<SampleSeries {self.name!r} n={self.count} mean={self.mean:.4g}>"
        )
