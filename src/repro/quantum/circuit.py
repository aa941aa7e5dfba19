"""Abstract quantum-kernel (circuit) workload descriptions.

Scheduling behaviour does not depend on circuit semantics, only on the
*time* a kernel occupies the device.  A :class:`Circuit` therefore
records the structural parameters that drive execution time on each
technology (width, depth, two-qubit fraction) plus an optional register
``geometry`` tag, which neutral-atom machines must calibrate for
(Fig 1's caption: jobs "include the calibration time for an arbitrary
register geometry").
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Circuit:
    """Structural description of a quantum kernel.

    Parameters
    ----------
    num_qubits:
        Register width used by the kernel.
    depth:
        Number of gate layers.
    two_qubit_fraction:
        Fraction of layers dominated by two-qubit gates (they are an
        order of magnitude slower on most hardware).
    geometry:
        Opaque register-geometry tag.  Machines with per-geometry
        calibration (neutral atoms) recalibrate when the tag changes.
    name:
        Optional label used in reports.
    """

    num_qubits: int
    depth: int
    two_qubit_fraction: float = 0.3
    geometry: Optional[str] = None
    name: str = "circuit"

    def __post_init__(self) -> None:
        if self.num_qubits <= 0:
            raise ConfigurationError("num_qubits must be positive")
        if self.depth < 0:
            raise ConfigurationError("depth must be >= 0")
        if not 0.0 <= self.two_qubit_fraction <= 1.0:
            raise ConfigurationError("two_qubit_fraction must be in [0, 1]")

    @property
    def one_qubit_layers(self) -> float:
        return self.depth * (1.0 - self.two_qubit_fraction)

    @property
    def two_qubit_layers(self) -> float:
        return self.depth * self.two_qubit_fraction

    def stable_hash(self) -> int:
        """Deterministic 64-bit hash (used to seed synthetic results)."""
        text = (
            f"{self.name}:{self.num_qubits}:{self.depth}:"
            f"{self.two_qubit_fraction}:{self.geometry}"
        )
        digest = hashlib.sha256(text.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")


@dataclass
class QuantumResult:
    """Outcome of a shot batch: synthetic measurement counts + timings."""

    counts: Dict[str, int] = field(default_factory=dict)
    shots: int = 0
    execution_time: float = 0.0
    queue_time: float = 0.0
    calibration_time: float = 0.0

    @property
    def total_time(self) -> float:
        """Queue + calibration + execution, as seen by the submitter."""
        return self.queue_time + self.calibration_time + self.execution_time


def sample_counts(circuit: Circuit, shots: int, max_outcomes: int = 16
                  ) -> Dict[str, int]:
    """Deterministic synthetic measurement counts for ``circuit``.

    Samples a multinomial over a small set of bitstrings whose weights
    are derived from the circuit's stable hash, so repeated runs of the
    same circuit return identical distributions — enough realism for
    examples and tests without simulating amplitudes.

    The draw is computed once per distinct input and memoised; every
    call returns a fresh dict, so callers may mutate their result.

    >>> bell = Circuit(num_qubits=2, depth=3, name="bell")
    >>> first = sample_counts(bell, shots=100)
    >>> second = sample_counts(bell, shots=100)
    >>> first == second, first is second, sum(first.values())
    (True, False, 100)
    """
    if shots <= 0:
        return {}
    return dict(
        _sampled_counts(
            circuit.stable_hash(), circuit.num_qubits, shots, max_outcomes
        )
    )


@lru_cache(maxsize=128)
def _sampled_counts(seed: int, num_qubits: int, shots: int,
                    max_outcomes: int) -> Tuple[Tuple[str, int], ...]:
    """The counts :func:`sample_counts` returns, as immutable pairs.

    Keyed by exactly what the draw reads — the circuit's stable-hash
    seed and its width — rather than by the circuit object, whose
    equality would merge ``two_qubit_fraction=0`` with ``0.0`` although
    their stable hashes differ.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    width = min(num_qubits, 20)
    n_outcomes = min(max_outcomes, 2 ** width)
    weights = rng.dirichlet(np.ones(n_outcomes))
    outcome_ids = rng.choice(2 ** width, size=n_outcomes, replace=False)
    draws = rng.multinomial(shots, weights)
    return tuple(
        (format(int(outcome), f"0{width}b"), int(count))
        for outcome, count in zip(outcome_ids, draws)
        if count > 0
    )
