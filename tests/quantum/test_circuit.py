"""Tests for circuit descriptions and synthetic results."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.quantum.circuit import (
    Circuit,
    QuantumResult,
    _sampled_counts,
    sample_counts,
)


def reference_counts(circuit, shots, max_outcomes=16):
    """The unmemoised draw: one fresh generator per call."""
    rng = np.random.default_rng(circuit.stable_hash())
    width = min(circuit.num_qubits, 20)
    n_outcomes = min(max_outcomes, 2 ** width)
    weights = rng.dirichlet(np.ones(n_outcomes))
    outcome_ids = rng.choice(2 ** width, size=n_outcomes, replace=False)
    draws = rng.multinomial(shots, weights)
    return {
        format(int(outcome), f"0{width}b"): int(count)
        for outcome, count in zip(outcome_ids, draws)
        if count > 0
    }


class TestCircuit:
    def test_basic_construction(self):
        circuit = Circuit(num_qubits=5, depth=10)
        assert circuit.num_qubits == 5
        assert circuit.depth == 10

    def test_invalid_qubits(self):
        with pytest.raises(ConfigurationError):
            Circuit(num_qubits=0, depth=1)

    def test_negative_depth(self):
        with pytest.raises(ConfigurationError):
            Circuit(num_qubits=1, depth=-1)

    def test_two_qubit_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            Circuit(num_qubits=2, depth=1, two_qubit_fraction=1.5)

    def test_layer_split(self):
        circuit = Circuit(num_qubits=4, depth=100, two_qubit_fraction=0.25)
        assert circuit.one_qubit_layers == pytest.approx(75.0)
        assert circuit.two_qubit_layers == pytest.approx(25.0)

    def test_stable_hash_deterministic(self):
        a = Circuit(3, 10, geometry="g")
        b = Circuit(3, 10, geometry="g")
        assert a.stable_hash() == b.stable_hash()

    def test_stable_hash_sensitive_to_geometry(self):
        a = Circuit(3, 10, geometry="g1")
        b = Circuit(3, 10, geometry="g2")
        assert a.stable_hash() != b.stable_hash()

    def test_frozen(self):
        circuit = Circuit(3, 10)
        with pytest.raises(AttributeError):
            circuit.depth = 20


class TestSampleCounts:
    def test_counts_sum_to_shots(self):
        circuit = Circuit(5, 20)
        counts = sample_counts(circuit, 1000)
        assert sum(counts.values()) == 1000

    def test_deterministic_for_same_circuit(self):
        circuit = Circuit(5, 20, name="fixed")
        assert sample_counts(circuit, 500) == sample_counts(circuit, 500)

    def test_bitstring_width(self):
        circuit = Circuit(6, 20)
        counts = sample_counts(circuit, 100)
        assert all(len(bits) == 6 for bits in counts)

    def test_zero_shots(self):
        assert sample_counts(Circuit(3, 5), 0) == {}

    def test_wide_circuit_truncates_bitstring(self):
        circuit = Circuit(100, 5)
        counts = sample_counts(circuit, 10)
        assert all(len(bits) == 20 for bits in counts)


class TestSampleCountsMemo:
    @pytest.mark.parametrize(
        "circuit, shots, max_outcomes",
        [
            (Circuit(5, 20, name="fixed"), 500, 16),
            (Circuit(2, 3, name="bell"), 1, 16),
            (Circuit(12, 40, 0.5, "g1"), 4096, 4),
            (Circuit(100, 5), 10, 16),
        ],
    )
    def test_matches_unmemoised_draw_on_every_call(
        self, circuit, shots, max_outcomes
    ):
        expected = reference_counts(circuit, shots, max_outcomes)
        for _ in range(3):
            assert sample_counts(circuit, shots, max_outcomes) == expected

    def test_repeat_call_returns_a_new_dict(self):
        circuit = Circuit(4, 9, name="repeat")
        first = sample_counts(circuit, 300)
        second = sample_counts(circuit, 300)
        assert first == second
        assert first is not second

    def test_mutating_a_result_does_not_leak(self):
        circuit = Circuit(4, 9, name="mutate")
        expected = reference_counts(circuit, 300)
        first = sample_counts(circuit, 300)
        first.clear()
        first["bogus"] = 1
        assert sample_counts(circuit, 300) == expected

    def test_equal_circuits_with_distinct_hashes_stay_distinct(self):
        # 0 == 0.0, so the two circuits compare (and hash) equal, but
        # their stable hashes, and hence their counts, differ.
        as_int = Circuit(6, 10, two_qubit_fraction=0, name="typed")
        as_float = Circuit(6, 10, two_qubit_fraction=0.0, name="typed")
        assert as_int == as_float
        assert as_int.stable_hash() != as_float.stable_hash()
        assert sample_counts(as_int, 200) == reference_counts(as_int, 200)
        assert sample_counts(as_float, 200) == reference_counts(as_float, 200)

    def test_memo_is_bounded(self):
        bound = _sampled_counts.cache_info().maxsize
        assert bound is not None
        for depth in range(bound + 10):
            sample_counts(Circuit(3, depth, name="bound"), 50)
        assert _sampled_counts.cache_info().currsize <= bound


class TestQuantumResult:
    def test_total_time(self):
        result = QuantumResult(
            execution_time=3.0, queue_time=2.0, calibration_time=1.0
        )
        assert result.total_time == 6.0
