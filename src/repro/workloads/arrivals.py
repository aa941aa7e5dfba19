"""Arrival processes: when jobs hit the scheduler.

Poisson arrivals are the baseline; the diurnal variant modulates the
rate with a day/night cycle (thinning method), reproducing the burst
structure of production traces; :class:`TraceArrivals` replays the
recorded submit times of an archive trace verbatim.  All three share
one protocol — ``times(rng, horizon, start)`` yields arrival times in
``[start, start + horizon)`` — so workload sources are interchangeable
downstream.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError


class PoissonArrivals:
    """Homogeneous Poisson process with the given mean inter-arrival."""

    def __init__(self, mean_interarrival: float) -> None:
        if mean_interarrival <= 0:
            raise ConfigurationError("mean_interarrival must be positive")
        self.mean_interarrival = float(mean_interarrival)

    def times(
        self, rng: np.random.Generator, horizon: float, start: float = 0.0
    ) -> Iterator[float]:
        """Yield arrival times in [start, start + horizon)."""
        now = start
        end = start + horizon
        while True:
            now += float(rng.exponential(self.mean_interarrival))
            if now >= end:
                return
            yield now


class DiurnalArrivals:
    """Poisson process with sinusoidal day/night rate modulation.

    The instantaneous rate is
    ``base_rate * (1 + amplitude * sin(2π t / period))``, sampled by
    thinning against the peak rate.
    """

    def __init__(
        self,
        mean_interarrival: float,
        amplitude: float = 0.5,
        period: float = 24 * 3600.0,
    ) -> None:
        if mean_interarrival <= 0:
            raise ConfigurationError("mean_interarrival must be positive")
        if not 0.0 <= amplitude < 1.0:
            raise ConfigurationError("amplitude must be in [0, 1)")
        if period <= 0:
            raise ConfigurationError("period must be positive")
        self.base_rate = 1.0 / mean_interarrival
        self.amplitude = amplitude
        self.period = period

    def instantaneous_rate(self, t: float) -> float:
        return self.base_rate * (
            1.0 + self.amplitude * math.sin(2.0 * math.pi * t / self.period)
        )

    def times(
        self, rng: np.random.Generator, horizon: float, start: float = 0.0
    ) -> Iterator[float]:
        """Yield arrival times in [start, start + horizon) by thinning."""
        peak = self.base_rate * (1.0 + self.amplitude)
        now = start
        end = start + horizon
        while True:
            now += float(rng.exponential(1.0 / peak))
            if now >= end:
                return
            if rng.random() <= self.instantaneous_rate(now) / peak:
                yield now


class TraceArrivals:
    """Deterministic arrival process replaying recorded submit times.

    The times are sorted once at construction; ``times()`` offsets them
    by ``start`` and stops at the horizon, matching the generator-based
    processes' contract exactly — the ``rng`` argument is accepted (and
    ignored) so trace replay drops into any code written against
    :class:`PoissonArrivals`.

    >>> arrivals = TraceArrivals([30.0, 10.0, 90.0])
    >>> list(arrivals.times(None, horizon=60.0))
    [10.0, 30.0]
    """

    def __init__(self, submit_times: Sequence[float]) -> None:
        ordered = sorted(float(time) for time in submit_times)
        if ordered and ordered[0] < 0:
            raise ConfigurationError("trace submit times must be >= 0")
        self.submit_times = ordered

    def times(
        self,
        rng: Optional[np.random.Generator],
        horizon: float,
        start: float = 0.0,
    ) -> Iterator[float]:
        """Yield the recorded times, shifted by ``start``, within the
        horizon."""
        for time in self.submit_times:
            shifted = start + time
            if shifted >= start + horizon:
                return
            yield shifted
