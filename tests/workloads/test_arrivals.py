"""Tests for arrival processes."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workloads.arrivals import (
    DiurnalArrivals,
    PoissonArrivals,
    TraceArrivals,
)


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestPoisson:
    def test_all_within_horizon(self, rng):
        times = list(PoissonArrivals(5.0).times(rng, horizon=1000.0))
        assert all(0.0 <= t < 1000.0 for t in times)

    def test_strictly_increasing(self, rng):
        times = list(PoissonArrivals(5.0).times(rng, horizon=1000.0))
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_count_matches_rate(self, rng):
        times = list(PoissonArrivals(10.0).times(rng, horizon=100000.0))
        assert len(times) == pytest.approx(10000, rel=0.05)

    def test_start_offset(self, rng):
        times = list(
            PoissonArrivals(5.0).times(rng, horizon=100.0, start=500.0)
        )
        assert all(500.0 <= t < 600.0 for t in times)

    def test_invalid_interarrival(self):
        with pytest.raises(ConfigurationError):
            PoissonArrivals(0.0)


class TestDiurnal:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DiurnalArrivals(10.0, amplitude=1.5)
        with pytest.raises(ConfigurationError):
            DiurnalArrivals(10.0, period=0.0)
        with pytest.raises(ConfigurationError):
            DiurnalArrivals(0.0)

    def test_rate_modulation(self):
        arrivals = DiurnalArrivals(10.0, amplitude=0.5, period=100.0)
        peak = arrivals.instantaneous_rate(25.0)  # sin peak
        trough = arrivals.instantaneous_rate(75.0)  # sin trough
        assert peak == pytest.approx(0.15)
        assert trough == pytest.approx(0.05)

    def test_mean_rate_preserved(self, rng):
        arrivals = DiurnalArrivals(10.0, amplitude=0.8, period=1000.0)
        times = list(arrivals.times(rng, horizon=100000.0))
        # Over many periods the average rate is the base rate.
        assert len(times) == pytest.approx(10000, rel=0.05)

    def test_bursts_concentrate_in_peak(self, rng):
        arrivals = DiurnalArrivals(10.0, amplitude=0.9, period=1000.0)
        times = list(arrivals.times(rng, horizon=100000.0))
        in_peak_half = sum(1 for t in times if (t % 1000.0) < 500.0)
        # The sin-positive half-period carries well over half the mass.
        assert in_peak_half / len(times) > 0.6

    def test_all_within_horizon(self, rng):
        arrivals = DiurnalArrivals(5.0)
        times = list(arrivals.times(rng, horizon=500.0))
        assert all(0.0 <= t < 500.0 for t in times)


class TestTraceArrivals:
    def test_replays_sorted_within_horizon(self):
        arrivals = TraceArrivals([30.0, 10.0, 90.0])
        assert list(arrivals.times(None, horizon=60.0)) == [10.0, 30.0]

    def test_rng_is_ignored(self, rng):
        arrivals = TraceArrivals([5.0, 15.0])
        assert list(arrivals.times(rng, 100.0)) == list(
            arrivals.times(None, 100.0)
        )

    def test_start_offset_shifts_times(self):
        arrivals = TraceArrivals([5.0, 15.0, 40.0])
        assert list(arrivals.times(None, horizon=20.0, start=100.0)) == [
            105.0,
            115.0,
        ]

    def test_negative_times_rejected(self):
        with pytest.raises(ConfigurationError):
            TraceArrivals([-1.0])

    def test_empty_trace_yields_nothing(self):
        assert list(TraceArrivals([]).times(None, 100.0)) == []
