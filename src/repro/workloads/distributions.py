"""Sampling distributions for workload generation.

Public HPC workload archives (the Feitelson Parallel Workloads Archive,
whose traces the literature's scheduling studies replay) exhibit
heavy-tailed runtimes, power-of-two-biased job sizes and bursty
arrivals.  Real traces cannot be shipped, so these distribution objects
generate synthetic workloads with the same *shape* — the substitution
documented in DESIGN.md.

Every distribution exposes ``sample(rng) -> float`` over a
:class:`numpy.random.Generator`, plus ``mean()`` where closed-form.
"""

from __future__ import annotations

import math
from typing import Protocol, Tuple

import numpy as np

from repro.errors import ConfigurationError


class Distribution(Protocol):
    """Protocol for scalar sampling distributions."""

    def sample(self, rng: np.random.Generator) -> float:
        """Draw one value."""
        ...

    def mean(self) -> float:
        """Expected value."""
        ...


class LogUniform:
    """Log-uniform over [low, high] — the classic runtime model.

    Matches the empirical observation that job runtimes are roughly
    uniform in log space across several decades.
    """

    def __init__(self, low: float, high: float) -> None:
        if low <= 0 or high < low:
            raise ConfigurationError("need 0 < low <= high")
        self.low = float(low)
        self.high = float(high)

    def sample(self, rng: np.random.Generator) -> float:
        return float(
            math.exp(rng.uniform(math.log(self.low), math.log(self.high)))
        )

    def mean(self) -> float:
        if self.low == self.high:
            return self.low
        return (self.high - self.low) / (
            math.log(self.high) - math.log(self.low)
        )

    def __repr__(self) -> str:
        return f"LogUniform({self.low!r}, {self.high!r})"


class PowerOfTwoNodes:
    """Job-size model: powers of two between bounds, log-uniform weight.

    Parallel-workload archives show strong clustering of node counts at
    powers of two.
    """

    def __init__(self, min_nodes: int = 1, max_nodes: int = 64) -> None:
        if min_nodes <= 0 or max_nodes < min_nodes:
            raise ConfigurationError("need 0 < min_nodes <= max_nodes")
        self.choices: Tuple[int, ...] = tuple(
            2**p
            for p in range(
                int(math.floor(math.log2(min_nodes))),
                int(math.floor(math.log2(max_nodes))) + 1,
            )
            if min_nodes <= 2**p <= max_nodes
        ) or (min_nodes,)

    def sample(self, rng: np.random.Generator) -> float:
        # One bounded-integer draw: the same bits (and generator state
        # afterwards) as ``rng.choice(list(self.choices))``, without
        # numpy's array machinery on every job.
        return float(self.choices[int(rng.integers(0, len(self.choices)))])

    def mean(self) -> float:
        return float(sum(self.choices)) / len(self.choices)

    def __repr__(self) -> str:
        return f"PowerOfTwoNodes({list(self.choices)!r})"
