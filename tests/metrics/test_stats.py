"""Tests for statistical helpers."""

import pytest

from repro.errors import ConfigurationError
from repro.metrics.stats import bootstrap_ci, mean, median
from repro.sim.monitor import RunningStats


class TestRunningStats:
    def test_matches_batch_formulas(self):
        values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        stats = RunningStats()
        for value in values:
            stats.add(value)
        assert stats.count == 8
        assert stats.total == pytest.approx(sum(values))
        assert stats.mean == pytest.approx(mean(values))
        assert stats.stdev == pytest.approx(2.0)
        assert stats.minimum == 2.0
        assert stats.maximum == 9.0

    def test_empty(self):
        stats = RunningStats()
        assert stats.count == 0
        assert stats.variance == 0.0
        assert stats.stdev == 0.0


class TestBasics:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert mean([]) == 0.0

    def test_median_odd(self):
        assert median([3.0, 1.0, 2.0]) == 2.0

    def test_median_even(self):
        assert median([1.0, 2.0, 3.0, 4.0]) == 2.5

    def test_median_empty(self):
        assert median([]) == 0.0

    def test_median_leaves_its_input_in_order(self):
        values = [3.0, 1.0, 2.0]
        median(values)
        assert values == [3.0, 1.0, 2.0]

    def test_mean_is_exact_under_cancellation(self):
        assert mean([1e16, 1.0, -1e16]) == pytest.approx(1.0 / 3.0)


class TestBootstrap:
    def test_interval_contains_true_mean(self):
        values = [float(v) for v in range(100)]
        low, high = bootstrap_ci(values, seed=1)
        assert low <= 49.5 <= high

    def test_degenerate_inputs(self):
        assert bootstrap_ci([]) == (0.0, 0.0)
        assert bootstrap_ci([7.0]) == (7.0, 7.0)

    def test_deterministic_with_seed(self):
        values = [1.0, 5.0, 9.0, 2.0, 8.0]
        assert bootstrap_ci(values, seed=3) == bootstrap_ci(values, seed=3)

    def test_confidence_bounds_validated(self):
        with pytest.raises(ConfigurationError):
            bootstrap_ci([1.0], confidence=1.5)

    def test_wider_confidence_wider_interval(self):
        values = [float(v) for v in range(50)]
        narrow = bootstrap_ci(values, confidence=0.5, seed=2)
        wide = bootstrap_ci(values, confidence=0.99, seed=2)
        assert (wide[1] - wide[0]) >= (narrow[1] - narrow[0])
