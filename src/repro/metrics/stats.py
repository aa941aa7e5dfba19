"""Statistical helpers for experiment analysis."""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "bootstrap_ci",
    "mean",
    "median",
]


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (0.0 for an empty sequence)."""
    if not values:
        return 0.0
    return math.fsum(values) / len(values)


def median(values: Sequence[float]) -> float:
    """Median (0.0 for an empty sequence)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def bootstrap_ci(
    values: Sequence[float],
    confidence: float = 0.95,
    replicates: int = 2000,
    seed: int = 0,
) -> Tuple[float, float]:
    """Percentile-bootstrap confidence interval for the mean."""
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError("confidence must be in (0, 1)")
    if not values:
        return (0.0, 0.0)
    data = np.asarray(values, dtype=float)
    if len(data) == 1:
        return (float(data[0]), float(data[0]))
    rng = np.random.default_rng(seed)
    samples = rng.choice(data, size=(replicates, len(data)), replace=True)
    means = samples.mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    low, high = np.quantile(means, [alpha, 1.0 - alpha])
    return (float(low), float(high))

