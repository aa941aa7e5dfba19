"""Tests for deterministic named random streams."""

from repro.sim.rng import RandomStreams, derive_seed


class TestDerivation:
    def test_same_inputs_same_seed(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")

    def test_different_names_different_seeds(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_different_roots_different_seeds(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")


class TestRandomStreams:
    def test_same_name_returns_same_generator(self):
        streams = RandomStreams(0)
        assert streams.stream("x") is streams.stream("x")

    def test_distinct_names_are_independent(self):
        streams = RandomStreams(0)
        a = [streams.stream("a").random() for _ in range(5)]
        b = [streams.stream("b").random() for _ in range(5)]
        assert a != b

    def test_reproducible_across_instances(self):
        first = RandomStreams(7).stream("arrivals").random(10).tolist()
        second = RandomStreams(7).stream("arrivals").random(10).tolist()
        assert first == second

    def test_adding_stream_does_not_perturb_existing(self):
        solo = RandomStreams(3)
        solo_draws = solo.stream("target").random(5).tolist()

        mixed = RandomStreams(3)
        mixed.stream("other").random(100)  # consume a different stream
        mixed_draws = mixed.stream("target").random(5).tolist()
        assert solo_draws == mixed_draws

    def test_repr(self):
        assert "seed=9" in repr(RandomStreams(9))
