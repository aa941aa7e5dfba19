"""The sweep engine's cache and run journal, backed by a result store.

``run_sweep(cache=store.sweep_cache(), journal=store.run_journal(...))``
is the one persistence path every experiment, scenario sweep and
campaign step uses (:func:`~repro.experiments.sweep.sweep_cache` opens
the store for a ``--cache-dir``).  Cache and journal share one
:class:`~repro.store.api.ResultStore`: one SQLite connection, one
writer flock — a second handle on the same directory would trip that
flock even inside one process.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple, Union

from repro.experiments.resilience import JournaledOk, Outcome
from repro.store.api import ResultStore


class StoreSweepCache:
    """Per-point memo of runner values in a result store.

    Each ``store()`` commits one WAL transaction — durable against
    SIGKILL — and each ``load_many()`` reads committed state only, in
    one batched lookup per sweep; a corrupt entry is quarantined and
    reads as a miss, so the point re-executes.
    """

    def __init__(self, store: ResultStore) -> None:
        self.result_store = store

    def load_many(
        self, spec: Any, runner_name: str, points: Sequence[Any]
    ) -> List[Tuple[bool, Any]]:
        """``(hit, value)`` for each of ``points``, in order."""
        return self.result_store.load_points(spec, runner_name, points)

    def store(
        self, spec: Any, runner_name: str, point: Any, value: Any
    ) -> None:
        self.result_store.store_point(spec, runner_name, point, value)


class StoreRunJournal:
    """Terminal point outcomes of one (experiment, runner, code version).

    Resume contract (enforced by ``run_sweep``): a journaled ``ok``
    point is served from the sweep cache without re-executing; a
    journaled permanent failure is replayed as its recorded outcome
    (under ``on_error="collect"``) without re-executing.  Resuming
    after a code change starts fresh: outcomes are keyed by the store's
    code version.  ``acquire()`` takes the store's writer flock (shared
    with the cache), so a second live writer fails fast with
    :class:`~repro.errors.StoreLockedError`.
    """

    def __init__(
        self, store: ResultStore, experiment_id: str, runner_name: str
    ) -> None:
        self.result_store = store
        self.experiment_id = experiment_id
        self.runner_name = runner_name

    def acquire(self) -> None:
        self.result_store.acquire()

    def load(self) -> Dict[str, Union[Outcome, JournaledOk]]:
        """Point key -> journaled outcome (a read; takes no lock): a
        :class:`JournaledOk` for an ``ok`` point, else the
        :class:`Outcome` to replay."""
        return self.result_store.load_outcomes(
            self.experiment_id, self.runner_name
        )

    def record(self, record: Outcome) -> None:
        self.result_store.record_outcome(
            self.experiment_id, self.runner_name, record
        )

    def reset(self) -> None:
        """Forget every outcome (a fresh, non-resuming run)."""
        self.result_store.clear_outcomes(
            self.experiment_id, self.runner_name
        )

    def close(self) -> None:
        """Release the writer lock; the store connection stays open
        (the cache sharing this store may still be reading)."""
        self.result_store.release()
