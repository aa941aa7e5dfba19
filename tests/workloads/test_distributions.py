"""Tests for the workload sampling distributions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.workloads.distributions import LogUniform, PowerOfTwoNodes


@pytest.fixture
def rng():
    return np.random.default_rng(7)


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

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            LogUniform(10.0, 5.0)

    @given(
        low=st.floats(min_value=0.01, max_value=100.0),
        span=st.floats(min_value=1.0, max_value=1e4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_samples_always_within_bounds(self, low, span, seed):
        dist = LogUniform(low, low * span)
        rng = np.random.default_rng(seed)
        for _ in range(50):
            sample = dist.sample(rng)
            # exp(log(x)) may round one ulp past either bound.
            assert low * (1 - 1e-12) <= sample <= low * span * (1 + 1e-12)


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
        with pytest.raises(ConfigurationError):
            PowerOfTwoNodes(8, 4)

    def test_mean_weights_each_power_equally(self, rng):
        dist = PowerOfTwoNodes(1, 16)
        assert dist.mean() == (1 + 2 + 4 + 8 + 16) / 5
        samples = [dist.sample(rng) for _ in range(20000)]
        assert np.mean(samples) == pytest.approx(dist.mean(), rel=0.05)

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
