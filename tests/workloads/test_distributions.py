"""Tests for the workload sampling distributions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.workloads.distributions import (
    BoundedPareto,
    Constant,
    Exponential,
    LogUniform,
    PowerOfTwoNodes,
    Uniform,
)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestConstant:
    def test_always_same(self, rng):
        dist = Constant(5.0)
        assert all(dist.sample(rng) == 5.0 for _ in range(10))
        assert dist.mean() == 5.0


class TestUniform:
    def test_in_range(self, rng):
        dist = Uniform(2.0, 4.0)
        samples = [dist.sample(rng) for _ in range(200)]
        assert all(2.0 <= s <= 4.0 for s in samples)

    def test_mean(self):
        assert Uniform(0.0, 10.0).mean() == 5.0

    def test_invalid_range(self):
        with pytest.raises(ConfigurationError):
            Uniform(4.0, 2.0)


class TestLogUniform:
    def test_in_range(self, rng):
        dist = LogUniform(1.0, 1000.0)
        samples = [dist.sample(rng) for _ in range(500)]
        assert all(1.0 <= s <= 1000.0 for s in samples)

    def test_covers_decades(self, rng):
        dist = LogUniform(1.0, 1000.0)
        samples = [dist.sample(rng) for _ in range(2000)]
        below_10 = sum(1 for s in samples if s < 10.0)
        above_100 = sum(1 for s in samples if s > 100.0)
        # Log-uniform: each decade gets roughly a third of the mass.
        assert 0.2 < below_10 / len(samples) < 0.5
        assert 0.2 < above_100 / len(samples) < 0.5

    def test_closed_form_mean_matches_empirical(self, rng):
        dist = LogUniform(10.0, 100.0)
        samples = [dist.sample(rng) for _ in range(20000)]
        assert np.mean(samples) == pytest.approx(dist.mean(), rel=0.05)

    def test_invalid_bounds(self):
        with pytest.raises(ConfigurationError):
            LogUniform(0.0, 10.0)

    def test_degenerate_mean(self):
        assert LogUniform(5.0, 5.0).mean() == 5.0


class TestExponential:
    def test_mean_matches(self, rng):
        dist = Exponential(100.0)
        samples = [dist.sample(rng) for _ in range(20000)]
        assert np.mean(samples) == pytest.approx(100.0, rel=0.05)

    def test_invalid_mean(self):
        with pytest.raises(ConfigurationError):
            Exponential(0.0)


class TestBoundedPareto:
    def test_in_range(self, rng):
        dist = BoundedPareto(1.0, 100.0, alpha=1.5)
        samples = [dist.sample(rng) for _ in range(1000)]
        assert all(1.0 <= s <= 100.0 for s in samples)

    def test_heavy_tail_shape(self, rng):
        dist = BoundedPareto(1.0, 1000.0, alpha=1.0)
        samples = [dist.sample(rng) for _ in range(5000)]
        # Most mass near the low end, but the tail is populated.
        assert np.median(samples) < 5.0
        assert max(samples) > 100.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BoundedPareto(10.0, 5.0)
        with pytest.raises(ConfigurationError):
            BoundedPareto(1.0, 10.0, alpha=0.0)

    @given(
        low=st.floats(min_value=0.5, max_value=10.0),
        span=st.floats(min_value=1.5, max_value=100.0),
        alpha=st.floats(min_value=0.5, max_value=3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_samples_always_within_bounds(self, low, span, alpha):
        dist = BoundedPareto(low, low * span, alpha=alpha)
        rng = np.random.default_rng(0)
        for _ in range(50):
            sample = dist.sample(rng)
            assert low <= sample <= low * span


class TestPowerOfTwoNodes:
    def test_only_powers_of_two(self, rng):
        dist = PowerOfTwoNodes(2, 32)
        samples = {int(dist.sample(rng)) for _ in range(500)}
        assert samples <= {2, 4, 8, 16, 32}

    def test_bounds_respected(self, rng):
        dist = PowerOfTwoNodes(3, 10)
        samples = {int(dist.sample(rng)) for _ in range(200)}
        assert samples <= {4, 8}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PowerOfTwoNodes(0, 4)

    def test_narrow_range_fallback(self, rng):
        dist = PowerOfTwoNodes(5, 7)
        assert int(dist.sample(rng)) == 5

    @pytest.mark.parametrize(
        "bounds", [(1, 64), (2, 16), (3, 10), (5, 7), (1, 1), (1, 2**20)]
    )
    def test_draws_match_rng_choice(self, bounds):
        # The bounded-integer draw must consume the same bits as
        # numpy's choice over the list, so traces stay byte-identical.
        dist = PowerOfTwoNodes(*bounds)
        for seed in range(120):
            ours = np.random.default_rng(seed)
            reference = np.random.default_rng(seed)
            for _ in range(50):
                expected = float(reference.choice(list(dist.choices)))
                assert dist.sample(ours) == expected
            assert (
                ours.bit_generator.state == reference.bit_generator.state
            )

    def test_choices_are_an_immutable_tuple(self):
        assert PowerOfTwoNodes(2, 16).choices == (2, 4, 8, 16)
        assert PowerOfTwoNodes(5, 7).choices == (5,)
