"""Deterministic, named random-number streams.

Stochastic components (arrival processes, runtime distributions, noise
on quantum job durations) each draw from their *own* stream derived
from a single root seed and a stable name.  Adding a new random
component therefore never perturbs the draws of existing ones — the
standard trick for reproducible discrete-event simulation studies.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np


def derive_seed(root_seed: int, name: str) -> int:
    """Map ``(root_seed, name)`` to a stable 64-bit child seed.

    The derivation is pure (sha256 over the textual key), so any two
    processes — or two runs years apart — agree on the child seed.  It
    is the one primitive behind both named streams and the sweep
    engine's per-grid-point seeds.
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RandomStreams:
    """Factory of independent named :class:`numpy.random.Generator` streams.

    Examples
    --------
    >>> streams = RandomStreams(seed=42)
    >>> arrivals = streams.stream("arrivals")
    >>> runtimes = streams.stream("runtimes")
    >>> float(arrivals.random()) != float(runtimes.random())
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* generator
        object (so consumption is shared), while distinct names yield
        statistically independent streams.
        """
        if name not in self._streams:
            child_seed = derive_seed(self.seed, name)
            self._streams[name] = np.random.default_rng(child_seed)
        return self._streams[name]

    def __repr__(self) -> str:
        return f"RandomStreams(seed={self.seed!r})"
