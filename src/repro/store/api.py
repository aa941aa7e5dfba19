"""The result store facade: point values, outcomes, campaigns,
submissions, columns, gc.

:class:`ResultStore` is the one object every consumer talks to:

- ``run_sweep`` talks to it through :class:`~repro.store.cache.
  StoreSweepCache` / :class:`~repro.store.cache.StoreRunJournal`;
- ``CampaignEngine`` calls its stage methods directly
  (:meth:`campaign_id`, :meth:`record_stage_outcome`,
  :meth:`save_stage_value`, ...): stage outcomes and values;
- the CLI ``store submit|status|results|gc`` verbs call
  :meth:`submit`, :meth:`status`, :meth:`results_rows` and :meth:`gc`
  directly; ``store submit`` and ``store run`` execute a submission
  the way a service worker does, through the lease protocol
  (:meth:`claim_next_submission`, :meth:`run_claimed_submission`).

Durability contract (proven by ``tests/store/test_crash.py``): every
point value and outcome is committed in its own WAL transaction, so a
SIGKILL at *any* :func:`~repro.store.db.crash_point` site loses at
most the uncommitted record; a reopened store never sees a torn row,
and resume re-executes exactly the points whose commits never landed
(zero of the stored ones).  Columnar shard files are published with
an atomic rename *before* the transaction that references them — a
crash leaves an orphan file for :meth:`gc`, never a committed row
pointing at a torn shard.
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import sqlite3
import zipfile
from collections import Counter
from pathlib import Path
from typing import (
    Any, Dict, List, Mapping, NamedTuple, Optional, Sequence, Set, Tuple,
    Union,
)

from repro.errors import (
    ConfigurationError,
    LeaseError,
    StoreCorruptError,
    StoreError,
    UnknownSubmissionError,
)
from repro.experiments.resilience import (
    STATUS_OK, STATUSES, JournaledOk, Outcome,
)
from repro.experiments.sweep import (
    SweepPoint,
    SweepSpec,
    _default_code_version,
    canonical_params,
)
from repro.store import columns as col
from repro.store import wake
from repro.store.db import StoreDB, crash_point

#: Points per columnar shard file (a 10^4-point grid → 5 shards).
DEFAULT_SHARD_POINTS = 2048

#: Submission lifecycle states.
SUBMISSION_STATES = ("pending", "running", "done", "failed")

#: Default lease duration for worker claims; a worker heartbeats at a
#: fraction of this, so a dead worker's submission becomes claimable
#: again after at most one lease window.
DEFAULT_LEASE_SECONDS = 60.0

#: Default cap on claims per submission: a submission whose worker
#: dies this many times is marked ``failed`` instead of crash-looping
#: the pool forever.
DEFAULT_MAX_CLAIMS = 5

#: A read re-stamps a sweep's ``last_read_at`` only once the stamp is
#: this old (or unset): ``gc --keep-days`` counts in days, so a finer
#: stamp keeps nothing longer, and warm reads stay read-only.
READ_STAMP_SECONDS = 60.0

#: Point keys per ``IN (...)`` query, well under SQLite's smallest
#: bound-variable limit (999).
_KEYS_PER_QUERY = 500

#: A ``shards`` row's columns as the reads select them.
_SHARD_COLUMNS = "s.id, s.created_at, s.filename, s.metrics"


class _Shard(NamedTuple):
    """One ``shards`` row, read in the query that finds it;
    ``(id, created_at)`` is its :class:`~repro.store.columns.
    ShardCache` key."""

    id: int
    created_at: float
    filename: str
    metrics: str  # JSON list of metric names


def spec_digest(spec: SweepSpec) -> str:
    """Stable identity of a sweep grid (axes, constants, seeds) — the
    spec's memoised :attr:`~repro.experiments.sweep.SweepSpec.digest`."""
    return spec.digest


def _point_store_key(point: SweepPoint) -> str:
    """The per-point part of the cache key — canonical params,
    replication and seed (identity columns carry the rest)."""
    return f"{point.key()}:seed{point.seed}"


class ResultStore:
    """A durable store of sweep results, outcomes and campaign state.

    One directory holds everything: ``store.sqlite3`` (metadata +
    inline payloads, WAL mode), ``shards/`` (columnar npz metric
    shards) and the writer lock.  Constructing the object is lazy;
    :meth:`open` (or any operation) creates the database.

    ``stats`` counts decode work (``unpickle``, ``json_decode``,
    ``column_point``, ``column_read``) so tests and benchmarks can
    assert the column path never unpickles per-point dicts, and
    ``read_touch`` counts ``last_read_at`` writes.
    """

    def __init__(
        self,
        directory: os.PathLike,
        code_version: Optional[str] = None,
        shared_writer: bool = False,
    ) -> None:
        self.directory = Path(directory)
        self.db = StoreDB(self.directory, shared_lock=shared_writer)
        self.code_version = code_version or _default_code_version()
        self.stats: Counter = Counter()
        self._shard_cache = col.ShardCache()
        self._versions_seen: set = set()

    # -- lifecycle -----------------------------------------------------------

    def open(self) -> "ResultStore":
        """Create/validate the database (migrating if older)."""
        self.db.connection()
        return self

    def acquire(self) -> None:
        """Take the exclusive writer lock (idempotent)."""
        self.db.acquire_writer()

    def release(self) -> None:
        self.db.release_writer()

    def close(self) -> None:
        self._shard_cache.clear()
        self.db.close()

    def __enter__(self) -> "ResultStore":
        return self.open()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- consumers -----------------------------------------------------------

    def sweep_cache(self) -> "Any":
        from repro.store.cache import StoreSweepCache

        return StoreSweepCache(self)

    def run_journal(self, experiment_id: str, runner_name: str) -> "Any":
        from repro.store.cache import StoreRunJournal

        return StoreRunJournal(self, experiment_id, runner_name)

    # -- helpers -------------------------------------------------------------

    def _write(self) -> contextlib.AbstractContextManager:
        """A write transaction under the writer lock."""
        self.acquire()
        self._ensure_code_version()
        return self.db.transaction()

    def _ensure_code_version(self) -> None:
        if self.code_version in self._versions_seen:
            return
        with self.db.transaction() as conn:
            conn.execute(
                "INSERT OR IGNORE INTO code_versions (version, first_seen)"
                " VALUES (?, ?)",
                (self.code_version, self.db.now()),
            )
        self._versions_seen.add(self.code_version)

    def _identity(self, experiment_id: str, runner: str) -> Tuple[str, str, str]:
        return (experiment_id, runner, self.code_version)

    # -- point values (the sweep cache) --------------------------------------

    def store_point(
        self,
        spec: SweepSpec,
        runner_name: str,
        point: SweepPoint,
        value: Any,
    ) -> None:
        """Durably record one point value (own committed transaction)."""
        kind, payload = col.encode_value(value)
        now = self.db.now()
        with self._write() as conn:
            conn.execute(
                """
                INSERT INTO points (experiment_id, runner, code_version,
                    point_key, kind, payload, shard_id, shard_pos,
                    created_at, updated_at)
                VALUES (?, ?, ?, ?, ?, ?, NULL, NULL, ?, ?)
                ON CONFLICT (experiment_id, runner, code_version, point_key)
                DO UPDATE SET kind = excluded.kind,
                              payload = excluded.payload,
                              shard_id = NULL, shard_pos = NULL,
                              updated_at = excluded.updated_at
                """,
                (
                    *self._identity(spec.experiment_id, runner_name),
                    _point_store_key(point),
                    kind,
                    payload,
                    now,
                    now,
                ),
            )
            crash_point("point-pre-commit")
        crash_point("point-post-commit")

    def load_point(
        self, spec: SweepSpec, runner_name: str, point: SweepPoint
    ) -> Tuple[bool, Any]:
        """``(hit, value)`` — a corrupt entry is dropped and misses."""
        return self.load_points(spec, runner_name, [point])[0]

    def load_points(
        self,
        spec: SweepSpec,
        runner_name: str,
        points: Sequence[SweepPoint],
    ) -> List[Tuple[bool, Any]]:
        """``(hit, value)`` for each of ``points``, in order.

        One ``IN`` query per 500 keys finds the rows.  A columnar point
        is a copy of its row in the shard's cached rows
        (:meth:`~repro.store.columns.ShardCache.rows`), plus its decoded
        residual.  A corrupt entry is dropped and misses: a shard that
        is gone misses, one that does not decode is quarantined and all
        its points miss, and torn inline payloads are deleted in one
        write transaction.
        """
        keys = [_point_store_key(point) for point in points]
        stored = self._stored_points(spec, runner_name, keys)
        rows_by_shard: Dict[int, Optional[List[Dict[str, Any]]]] = {}
        torn: Set[int] = set()
        loaded: List[Tuple[bool, Any]] = []
        for key in keys:
            row = stored.get(key)
            # A repeated key whose torn row this call already dropped
            # misses as a second lookup would.
            if row is None or row[0] in torn:
                loaded.append((False, None))
                continue
            row_id, kind, payload, shard_pos, shard = row
            if kind in col.COLUMN_KINDS:
                if shard is None:
                    loaded.append((False, None))  # its shard is gone
                    continue
                if shard.id not in rows_by_shard:
                    try:
                        rows_by_shard[shard.id] = self._shard_rows(shard)
                    except StoreCorruptError:
                        rows_by_shard[shard.id] = None  # quarantined
                shard_rows = rows_by_shard[shard.id]
                if shard_rows is None:
                    loaded.append((False, None))
                    continue
                self.stats["column_point"] += 1
                value = shard_rows[shard_pos].copy()
                if kind == col.PAYLOAD_COLUMN:
                    loaded.append((True, value))
                    continue
            try:
                inline = self._decode_inline(kind, payload)
            except Exception:
                # Torn/garbage inline payload: drop the row so the point
                # re-executes instead of crashing every reader forever.
                torn.add(row_id)
                loaded.append((False, None))
                continue
            if kind in col.COLUMN_KINDS:
                value.update(inline)
                inline = value
            loaded.append((True, inline))
        if torn:
            with self._write() as conn:
                conn.executemany(
                    "DELETE FROM points WHERE id = ?",
                    [(row_id,) for row_id in torn],
                )
        return loaded

    def _decode_inline(self, kind: str, payload: bytes) -> Any:
        """A point's inline payload: its whole value, or the non-scalar
        residual of a columnarised point (counted in ``stats``)."""
        if kind in (col.PAYLOAD_JSON, col.PAYLOAD_COLUMN_JSON):
            self.stats["json_decode"] += 1
            return col.decode_value(col.PAYLOAD_JSON, payload)
        self.stats["unpickle"] += 1
        return col.decode_value(col.PAYLOAD_PICKLE, payload)

    # -- outcomes (the run journal) ------------------------------------------

    def record_outcome(
        self, experiment_id: str, runner_name: str, outcome: Outcome
    ) -> None:
        with self._write() as conn:
            conn.execute(
                """
                INSERT INTO outcomes (experiment_id, runner, code_version,
                    point_key, point_index, status, attempts, error,
                    traceback, attempt_seconds, cached, resumed, updated_at)
                VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                ON CONFLICT (experiment_id, runner, code_version, point_key)
                DO UPDATE SET point_index = excluded.point_index,
                              status = excluded.status,
                              attempts = excluded.attempts,
                              error = excluded.error,
                              traceback = excluded.traceback,
                              attempt_seconds = excluded.attempt_seconds,
                              cached = excluded.cached,
                              resumed = excluded.resumed,
                              updated_at = excluded.updated_at
                """,
                (
                    *self._identity(experiment_id, runner_name),
                    outcome.key,
                    outcome.index,
                    outcome.status,
                    outcome.attempts,
                    outcome.error,
                    outcome.traceback,
                    json.dumps(outcome.attempt_seconds),
                    int(outcome.cached),
                    int(outcome.resumed),
                    self.db.now(),
                ),
            )
            crash_point("outcome-pre-commit")
        crash_point("outcome-post-commit")

    def load_outcomes(
        self, experiment_id: str, runner_name: str
    ) -> Dict[str, Union[Outcome, JournaledOk]]:
        """Point key -> journaled terminal outcome (reads are lock-free).

        An ``ok`` row comes back as a :class:`~repro.experiments.
        resilience.JournaledOk`: its attempts and their durations, all
        a cache hit reports, read by a query that selects only those.
        Any other row comes back as the full :class:`Outcome` a resumed
        run replays, read by a second query only when there is one.
        """
        conn = self.db.connection()
        identity = self._identity(experiment_id, runner_name)
        rows = conn.execute(
            """
            SELECT point_key, status, attempts, attempt_seconds
            FROM outcomes
            WHERE experiment_id = ? AND runner = ? AND code_version = ?
            """,
            identity,
        ).fetchall()
        ok = [row for row in rows if row[1] == STATUS_OK]
        # Each attempt_seconds is a JSON list: decode them all at once.
        decoded = json.loads(f"[{','.join(row[3] for row in ok)}]")
        outcomes: Dict[str, Union[Outcome, JournaledOk]] = {
            key: JournaledOk(attempts, seconds)
            for (key, _status, attempts, _text), seconds in zip(ok, decoded)
        }
        if len(ok) == len(rows):
            return outcomes
        for row in conn.execute(
            """
            SELECT point_key, point_index, status, attempts, error,
                   traceback, attempt_seconds, cached, resumed
            FROM outcomes
            WHERE experiment_id = ? AND runner = ? AND code_version = ?
              AND status != ?
            """,
            (*identity, STATUS_OK),
        ):
            (key, index, status, attempts, error, trace, seconds,
             cached, resumed) = row
            if status not in STATUSES:
                continue
            outcomes[key] = Outcome(
                key=key,
                status=status,
                index=index,
                attempts=attempts,
                error=error,
                traceback=trace,
                attempt_seconds=list(json.loads(seconds)),
                cached=bool(cached),
                resumed=bool(resumed),
            )
        return outcomes

    def clear_outcomes(self, experiment_id: str, runner_name: str) -> None:
        with self._write() as conn:
            conn.execute(
                """
                DELETE FROM outcomes
                WHERE experiment_id = ? AND runner = ? AND code_version = ?
                """,
                self._identity(experiment_id, runner_name),
            )

    # -- campaigns (the stage journal) ---------------------------------------

    def find_campaign_id(
        self, name: str, seed: int, code_version: Optional[str] = None
    ) -> Optional[int]:
        """The campaign's row id, or ``None`` — a pure read (status
        paths must never take the writer lock)."""
        row = self.db.connection().execute(
            "SELECT id FROM campaigns WHERE name = ? AND seed = ?"
            " AND code_version = ?",
            (name, seed, code_version or self.code_version),
        ).fetchone()
        return row[0] if row is not None else None

    def campaign_id(
        self, name: str, seed: int, code_version: Optional[str] = None
    ) -> int:
        version = code_version or self.code_version
        found = self.find_campaign_id(name, seed, version)
        if found is not None:
            return found
        now = self.db.now()
        with self._write() as conn:
            conn.execute(
                "INSERT OR IGNORE INTO campaigns (name, seed, code_version,"
                " created_at, updated_at) VALUES (?, ?, ?, ?, ?)",
                (name, seed, version, now, now),
            )
        return self.campaign_id(name, seed, version)

    def record_stage_outcome(
        self, campaign_id: int, outcome: Outcome
    ) -> None:
        with self._write() as conn:
            conn.execute(
                """
                INSERT INTO stages (campaign_id, name, status, attempts,
                    error, traceback, attempt_seconds, result_digest,
                    resumed, updated_at)
                VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                ON CONFLICT (campaign_id, name)
                DO UPDATE SET status = excluded.status,
                              attempts = excluded.attempts,
                              error = excluded.error,
                              traceback = excluded.traceback,
                              attempt_seconds = excluded.attempt_seconds,
                              result_digest = excluded.result_digest,
                              resumed = excluded.resumed,
                              updated_at = excluded.updated_at
                """,
                (
                    campaign_id,
                    outcome.key,
                    outcome.status,
                    outcome.attempts,
                    outcome.error,
                    outcome.traceback,
                    json.dumps(outcome.attempt_seconds),
                    outcome.result_digest,
                    int(outcome.resumed),
                    self.db.now(),
                ),
            )
            crash_point("stage-pre-commit")
        crash_point("stage-post-commit")

    def load_stage_outcomes(self, campaign_id: int) -> Dict[str, Outcome]:
        """Stage name -> journaled terminal outcome (a lock-free read)."""
        rows = self.db.connection().execute(
            """
            SELECT name, status, attempts, error, traceback,
                   attempt_seconds, result_digest, resumed
            FROM stages WHERE campaign_id = ?
            """,
            (campaign_id,),
        ).fetchall()
        outcomes: Dict[str, Outcome] = {}
        for row in rows:
            name, status, attempts, error, trace, seconds, digest, res = row
            if status not in STATUSES:
                continue
            outcomes[name] = Outcome(
                key=name,
                status=status,
                attempts=attempts,
                error=error,
                traceback=trace,
                attempt_seconds=list(json.loads(seconds)),
                result_digest=digest,
                resumed=bool(res),
            )
        return outcomes

    def clear_stages(self, campaign_id: int) -> None:
        with self._write() as conn:
            conn.execute(
                "DELETE FROM stages WHERE campaign_id = ?", (campaign_id,)
            )
            conn.execute(
                "DELETE FROM stage_values WHERE campaign_id = ?",
                (campaign_id,),
            )

    def save_stage_value(
        self, campaign_id: int, stage: str, digest: str, value: Any
    ) -> None:
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        with self._write() as conn:
            conn.execute(
                """
                INSERT INTO stage_values (campaign_id, stage, digest,
                    value, updated_at)
                VALUES (?, ?, ?, ?, ?)
                ON CONFLICT (campaign_id, stage)
                DO UPDATE SET digest = excluded.digest,
                              value = excluded.value,
                              updated_at = excluded.updated_at
                """,
                (campaign_id, stage, digest, blob, self.db.now()),
            )
            crash_point("stage-value-pre-commit")
        crash_point("stage-value-post-commit")

    def load_stage_value(
        self, campaign_id: int, stage: str, expect_digest: Optional[str]
    ) -> Tuple[bool, Any]:
        """``(found, value)`` with digest verification — mismatch or
        unreadable blob means re-execute, never crash."""
        row = self.db.connection().execute(
            "SELECT digest, value FROM stage_values"
            " WHERE campaign_id = ? AND stage = ?",
            (campaign_id, stage),
        ).fetchone()
        if row is None:
            return False, None
        digest, blob = row
        if expect_digest is not None and digest != expect_digest:
            return False, None
        try:
            return True, pickle.loads(blob)
        except Exception:
            return False, None

    # -- columnar finalization -----------------------------------------------

    def _sweep_row(
        self, spec: SweepSpec, runner_name: str, digest: str
    ) -> Optional[Tuple[int, str, int, Optional[float]]]:
        """``(id, state, n_points, last_read_at)`` of the sweep whose
        :func:`spec_digest` is ``digest``, or ``None``."""
        row = self.db.connection().execute(
            """
            SELECT id, state, n_points, last_read_at FROM sweeps
            WHERE experiment_id = ? AND runner = ? AND code_version = ?
              AND spec_digest = ?
            """,
            (*self._identity(spec.experiment_id, runner_name), digest),
        ).fetchone()
        return row

    def _register_sweep(
        self, spec: SweepSpec, runner_name: str, digest: str
    ) -> int:
        """The id of the spec's ``sweeps`` row, inserted ``open``."""
        now = self.db.now()
        with self._write() as conn:
            conn.execute(
                """
                INSERT OR IGNORE INTO sweeps (experiment_id, runner,
                    code_version, spec_digest, spec_json, n_points, state,
                    created_at, updated_at)
                VALUES (?, ?, ?, ?, ?, ?, 'open', ?, ?)
                """,
                (
                    *self._identity(spec.experiment_id, runner_name),
                    digest,
                    json.dumps(spec.to_dict(), sort_keys=True),
                    len(spec),
                    now,
                    now,
                ),
            )
        return self._sweep_row(spec, runner_name, digest)[0]

    def finalize_sweep(
        self,
        spec: SweepSpec,
        runner_name: str,
        shard_points: int = DEFAULT_SHARD_POINTS,
    ) -> int:
        """Move a completed sweep's scalar metrics into columnar shards.

        Idempotent: an already-columnar sweep returns immediately,
        without taking the writer lock.  Shard files are published
        (atomic rename) *before* the transaction that references them
        commits — a crash in between leaves orphan files for
        :meth:`gc`, never a torn shard behind a committed row.
        Returns the number of shards written.
        """
        if shard_points < 1:
            raise ConfigurationError("shard_points must be >= 1")
        digest = spec_digest(spec)
        row = self._sweep_row(spec, runner_name, digest)
        if row is not None and row[1] == "columnar":
            return 0
        self.acquire()
        # Re-read under the lock: another writer may have finalized it.
        row = self._sweep_row(spec, runner_name, digest)
        if row is not None and row[1] == "columnar":
            return 0
        sweep_id = (
            row[0] if row is not None
            else self._register_sweep(spec, runner_name, digest)
        )
        keys = [_point_store_key(point) for point in spec.points()]
        stored = self._stored_points(spec, runner_name, keys)
        missing = [key for key in keys if key not in stored]
        if missing:
            raise StoreError(
                f"cannot finalize sweep {spec.experiment_id!r}: "
                f"{len(missing)} of {len(keys)} points are not stored "
                "(run the sweep to completion first)"
            )
        shard_rows: List[Tuple[int, str, int, int, List[str]]] = []
        # (row_id, shard_seq, pos, kind, residual_payload)
        eligible_updates: List[
            Tuple[int, int, int, str, Optional[bytes]]
        ] = []
        for seq, start in enumerate(range(0, len(keys), shard_points)):
            block = keys[start:start + shard_points]
            values: List[Optional[Mapping[str, Any]]] = []
            rows_in_block: List[
                Optional[Tuple[int, Dict[str, Any]]]
            ] = []
            for key in block:
                row_id, kind, payload, pos, shard = stored[key]
                if kind in col.COLUMN_KINDS:
                    # Re-finalize after new points joined: recover the
                    # value from its current shard (+ residual).
                    if shard is None:
                        raise StoreError(
                            f"point {row_id} names a shard that is not "
                            "in the store"
                        )
                    value = self._shard_rows(shard)[pos].copy()
                    if kind != col.PAYLOAD_COLUMN:
                        value.update(self._decode_inline(kind, payload))
                else:
                    value = self._decode_inline(kind, payload)
                split = col.split_point(value)
                if split is None:
                    values.append(None)
                    rows_in_block.append(None)
                else:
                    scalars, residual = split
                    values.append(scalars)
                    rows_in_block.append((row_id, residual))
            arrays, metrics = col.build_shard_arrays(values)
            filename = f"sweep{sweep_id:06d}-{seq:04d}.npz"
            col.write_shard(self.db.shards_dir / filename, arrays)
            shard_rows.append((seq, filename, start, len(block), metrics))
            for pos, entry in enumerate(rows_in_block):
                if entry is None:
                    continue
                row_id, residual = entry
                if residual:
                    inline_kind, residual_payload = col.encode_value(
                        residual
                    )
                    kind = (
                        col.PAYLOAD_COLUMN_JSON
                        if inline_kind == col.PAYLOAD_JSON
                        else col.PAYLOAD_COLUMN_PICKLE
                    )
                else:
                    kind, residual_payload = col.PAYLOAD_COLUMN, None
                eligible_updates.append(
                    (row_id, seq, pos, kind, residual_payload)
                )
        now = self.db.now()
        with self.db.transaction() as conn:
            conn.execute(
                "DELETE FROM shards WHERE sweep_id = ?", (sweep_id,)
            )
            seq_to_id: Dict[int, int] = {}
            for seq, filename, start, count, metrics in shard_rows:
                cursor = conn.execute(
                    """
                    INSERT INTO shards (sweep_id, seq, filename,
                        start_index, count, metrics, created_at)
                    VALUES (?, ?, ?, ?, ?, ?, ?)
                    """,
                    (
                        sweep_id, seq, filename, start, count,
                        json.dumps(metrics), now,
                    ),
                )
                seq_to_id[seq] = cursor.lastrowid
            for row_id, seq, pos, kind, residual_payload in eligible_updates:
                conn.execute(
                    "UPDATE points SET kind = ?, payload = ?,"
                    " shard_id = ?, shard_pos = ?, updated_at = ?"
                    " WHERE id = ?",
                    (
                        kind, residual_payload, seq_to_id[seq], pos, now,
                        row_id,
                    ),
                )
            conn.execute(
                "UPDATE sweeps SET state = 'columnar', n_points = ?,"
                " updated_at = ? WHERE id = ?",
                (len(keys), now, sweep_id),
            )
            crash_point("finalize-pre-commit")
        crash_point("finalize-post-commit")
        return len(shard_rows)

    def _stored_points(
        self, spec: SweepSpec, runner_name: str, keys: Sequence[str]
    ) -> Dict[str, Tuple[int, str, Optional[bytes], Any, Optional[_Shard]]]:
        """``point_key -> (row id, kind, payload, shard_pos, shard)`` for
        the stored ones of ``keys`` (:func:`_point_store_key`) — only
        those rows, never the rest of the experiment's history."""
        conn = self.db.connection()
        identity = self._identity(spec.experiment_id, runner_name)
        stored = {}
        for begin in range(0, len(keys), _KEYS_PER_QUERY):
            chunk = keys[begin:begin + _KEYS_PER_QUERY]
            for row in conn.execute(
                f"""
                SELECT p.point_key, p.id, p.kind, p.payload, p.shard_pos,
                       {_SHARD_COLUMNS}
                FROM points AS p LEFT JOIN shards AS s ON s.id = p.shard_id
                WHERE p.experiment_id = ? AND p.runner = ?
                  AND p.code_version = ?
                  AND p.point_key IN ({",".join("?" * len(chunk))})
                """,
                (*identity, *chunk),
            ):
                shard = None if row[5] is None else _Shard(*row[5:])
                stored[row[0]] = (*row[1:5], shard)
        return stored

    # -- shard reading -------------------------------------------------------

    def _cached_shard(
        self, shard: _Shard, metrics: Optional[Sequence[str]] = None
    ) -> Optional[col.CachedShard]:
        """``shard``'s cache entry with those of ``metrics`` (default:
        all) it holds decoded, or ``None`` if it holds none of them: a
        miss opens the shard once and decodes only the members not
        cached yet.  A shard that does not decode is quarantined and
        raises :class:`StoreCorruptError`."""
        key = (shard.id, shard.created_at)
        entry = self._shard_cache.get(key)
        held = entry.metrics if entry is not None else json.loads(
            shard.metrics
        )
        wanted = held if metrics is None else [m for m in metrics if m in held]
        missing = wanted if entry is None else [
            metric for metric in wanted if metric in entry.undecoded
        ]
        if not missing:
            return entry
        path = self.db.shards_dir / shard.filename
        try:
            with col.open_shard(path) as npz:
                decoded = {
                    metric: col.shard_metric_arrays(npz, metric)
                    for metric in missing
                }
        except (OSError, EOFError, ValueError, KeyError,
                zipfile.BadZipFile) as exc:
            self._shard_cache.discard(key)
            quarantined = self.quarantine_shard(shard.id)
            raise StoreCorruptError(
                f"metric shard {path.name} is unreadable ({exc}); "
                f"quarantined to {quarantined.name} — its points "
                "re-execute on the next run of the sweep, which can "
                "then be finalized again"
            ) from exc
        return self._shard_cache.add(key, held, decoded)

    def _shard_arrays(
        self, shard: _Shard, metrics: Sequence[str]
    ) -> Dict[str, col.MetricArrays]:
        """One shard's arrays for those of ``metrics`` it holds,
        through the handle's cache (:meth:`_cached_shard`)."""
        entry = self._cached_shard(shard, metrics)
        if entry is None:
            return {}
        return {
            metric: entry.arrays[metric] for metric in metrics
            if metric in entry.arrays
        }

    def _shard_rows(self, shard: _Shard) -> List[Dict[str, Any]]:
        """Every point's scalar metrics in one shard, in shard position
        order, through the handle's cache (:meth:`_cached_shard`).
        These are the cache's own dicts: copy one before handing it
        out, never change it."""
        entry = self._cached_shard(shard)
        if entry is None:
            return []
        return self._shard_cache.rows((shard.id, shard.created_at), entry)

    def quarantine_shard(self, shard_id: int) -> Path:
        """Rename a bad shard aside and unlink its rows so every point
        it held becomes a clean cache miss."""
        row = self.db.connection().execute(
            "SELECT filename, sweep_id FROM shards WHERE id = ?", (shard_id,)
        ).fetchone()
        if row is None:
            raise StoreError(f"shard {shard_id} is not in the store")
        filename, sweep_id = row
        path = self.db.shards_dir / filename
        quarantined = path.with_name(path.name + ".corrupt")
        with contextlib.suppress(OSError):
            os.replace(path, quarantined)
        with self._write() as conn:
            conn.execute(
                "DELETE FROM points WHERE shard_id = ?", (shard_id,)
            )
            conn.execute("DELETE FROM shards WHERE id = ?", (shard_id,))
            conn.execute(
                "UPDATE sweeps SET state = 'open', updated_at = ?"
                " WHERE id = ?",
                (self.db.now(), sweep_id),
            )
        return quarantined

    def read_column(
        self, spec: SweepSpec, runner_name: str, metric: str
    ) -> col.MetricColumn:
        """One metric across the whole grid, in spec point order.

        Touches only that metric's npz members — never unpickles a
        per-point dict (``stats['unpickle']`` stays flat; the
        benchmark asserts it).  Requires a finalized (columnar) sweep.
        Stamps the sweep's ``last_read_at`` (what :meth:`gc` keeps by)
        once that stamp is :data:`READ_STAMP_SECONDS` old.
        """
        sweep_id, n_points, last_read_at = self._finalized_sweep(
            spec, runner_name
        )
        [column] = self._read_columns(sweep_id, n_points, [metric])
        self._touch_read(sweep_id, last_read_at)
        return column

    def _finalized_sweep(
        self, spec: SweepSpec, runner_name: str
    ) -> Tuple[int, int, Optional[float]]:
        """``(sweep_id, n_points, last_read_at)`` of a finalized sweep,
        or raise."""
        row = self._sweep_row(spec, runner_name, spec_digest(spec))
        if row is None or row[1] != "columnar":
            raise StoreError(
                f"sweep {spec.experiment_id!r} is not finalized in this "
                "store — run it through the store cache, then call "
                "finalize_sweep()"
            )
        return row[0], row[2], row[3]

    def _read_columns(
        self, sweep_id: int, n_points: int, metrics: Sequence[str]
    ) -> List[col.MetricColumn]:
        """:meth:`read_column` for several metrics at once, without the
        ``last_read_at`` write; each shard is opened at most once."""
        blocks: Dict[str, List[Any]] = {metric: [] for metric in metrics}
        for row in self.db.connection().execute(
            f"""
            SELECT s.start_index, s.count, {_SHARD_COLUMNS} FROM shards AS s
            WHERE s.sweep_id = ? ORDER BY s.seq
            """,
            (sweep_id,),
        ).fetchall():
            start, count = row[:2]
            arrays = self._shard_arrays(_Shard(*row[2:]), metrics)
            for metric in blocks:
                blocks[metric].append((start, count, arrays.get(metric)))
        self.stats["column_read"] += len(metrics)
        return [
            col.assemble_column(metric, blocks[metric], n_points)
            for metric in metrics
        ]

    def _touch_read(
        self, sweep_id: int, last_read_at: Optional[float]
    ) -> None:
        """Stamp ``last_read_at`` (one best-effort write transaction)
        unless the stamp is younger than :data:`READ_STAMP_SECONDS`."""
        now = self.db.now()
        if last_read_at is not None and (
            now - last_read_at < READ_STAMP_SECONDS
        ):
            return
        self.stats["read_touch"] += 1
        with contextlib.suppress(sqlite3.Error):
            with self.db.transaction() as conn:
                conn.execute(
                    "UPDATE sweeps SET last_read_at = ? WHERE id = ?",
                    (now, sweep_id),
                )

    def sweep_metrics(self, spec: SweepSpec, runner_name: str) -> List[str]:
        """Metric names a finalized sweep's shards carry."""
        row = self._sweep_row(spec, runner_name, spec_digest(spec))
        if row is None:
            return []
        metrics: List[str] = []
        seen = set()
        for (metrics_json,) in self.db.connection().execute(
            "SELECT metrics FROM shards WHERE sweep_id = ? ORDER BY seq",
            (row[0],),
        ):
            for metric in json.loads(metrics_json):
                if metric not in seen:
                    seen.add(metric)
                    metrics.append(metric)
        return metrics

    # -- submissions ---------------------------------------------------------

    def submit(
        self,
        name: str,
        spec: SweepSpec,
        runner_name: str,
    ) -> int:
        """Queue one sweep submission (state ``pending``); once it has
        committed, ring the idle workers' doorbells (:mod:`repro.store.
        wake`) so one claims it without waiting out its poll."""
        now = self.db.now()
        with self._write() as conn:
            cursor = conn.execute(
                """
                INSERT INTO submissions (name, spec_json,
                    experiment_id, runner, code_version, state,
                    created_at, updated_at)
                VALUES (?, ?, ?, ?, ?, 'pending', ?, ?)
                """,
                (
                    name,
                    json.dumps(spec.to_dict(), sort_keys=True),
                    *self._identity(spec.experiment_id, runner_name),
                    now,
                    now,
                ),
            )
            crash_point("submit-pre-commit")
            submission_id = cursor.lastrowid
        wake.ring(self.directory)
        return submission_id

    def submission(self, submission_id: int) -> Dict[str, Any]:
        row = self.db.connection().execute(
            """
            SELECT id, name, kind, spec_json, experiment_id, runner,
                   code_version, state, error, ok_points, failed_points,
                   claimed_by, lease_expires_at, attempts,
                   created_at, updated_at
            FROM submissions WHERE id = ?
            """,
            (submission_id,),
        ).fetchone()
        if row is None:
            raise UnknownSubmissionError(
                f"no submission with id {submission_id}"
            )
        keys = (
            "id", "name", "kind", "spec_json", "experiment_id", "runner",
            "code_version", "state", "error", "ok_points", "failed_points",
            "claimed_by", "lease_expires_at", "attempts",
            "created_at", "updated_at",
        )
        return dict(zip(keys, row))

    def status(self) -> List[Dict[str, Any]]:
        """Every submission, newest first."""
        rows = self.db.connection().execute(
            """
            SELECT id, name, kind, state, experiment_id, ok_points,
                   failed_points, error, claimed_by, lease_expires_at,
                   attempts, updated_at
            FROM submissions ORDER BY id DESC
            """
        ).fetchall()
        keys = (
            "id", "name", "kind", "state", "experiment_id", "ok_points",
            "failed_points", "error", "claimed_by", "lease_expires_at",
            "attempts", "updated_at",
        )
        return [dict(zip(keys, row)) for row in rows]

    def queue_summary(self, now: Optional[float] = None) -> Dict[str, Any]:
        """Queue composition: per-state counts plus stale-lease count.

        A *stale lease* is a ``running`` submission whose lease has
        expired — its worker died (or wedged past the lease window)
        and the next claim will take it over — or that carries no
        lease at all (a store written before ``store run`` took
        leases can hold such a row).  A pure read: safe while workers
        are live.
        """
        now = self.db.now() if now is None else now
        conn = self.db.connection()
        counts = {state: 0 for state in SUBMISSION_STATES}
        for state, count in conn.execute(
            "SELECT state, COUNT(*) FROM submissions GROUP BY state"
        ):
            counts[state] = count
        stale = conn.execute(
            """
            SELECT COUNT(*) FROM submissions
            WHERE state = 'running'
              AND (lease_expires_at IS NULL OR lease_expires_at < ?)
            """,
            (now,),
        ).fetchone()[0]
        counts["stale_leases"] = stale
        counts["depth"] = counts["pending"] + counts["running"]
        return counts

    # -- leases (the worker-pool claim protocol) -----------------------------

    def claim_next_submission(
        self,
        worker_id: str,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        now: Optional[float] = None,
        max_claims: Optional[int] = DEFAULT_MAX_CLAIMS,
        submission_id: Optional[int] = None,
    ) -> Optional[Dict[str, Any]]:
        """Atomically claim the oldest claimable submission, or None.

        Claimable: ``pending``, or ``running`` with an expired lease
        (its worker died — the per-point transactions mean the new
        holder re-runs only the uncommitted remainder) or with none
        (see :meth:`queue_summary`).  ``submission_id`` narrows the
        claim to that one submission (``store run``).  The claim is
        one ``BEGIN IMMEDIATE`` transaction, so two workers can never
        claim the same submission: the loser sees the winner's
        committed ``claimed_by``.  A submission already claimed
        ``max_claims`` times is marked ``failed`` instead (poison
        protection); pass ``max_claims=None`` to retry forever.

        The claim re-stamps ``code_version`` with the executing
        worker's: a deferred submission run from a newer checkout
        stores (and must later read) its points under that version.
        """
        if lease_seconds <= 0:
            raise ConfigurationError("lease_seconds must be > 0")
        now = self.db.now() if now is None else now
        claimed_id: Optional[int] = None
        with self._write() as conn:
            rows = conn.execute(
                """
                SELECT id, attempts FROM submissions
                WHERE (state = 'pending'
                       OR (state = 'running'
                           AND (lease_expires_at IS NULL
                                OR lease_expires_at < ?)))
                  AND (? IS NULL OR id = ?)
                ORDER BY id
                """,
                (now, submission_id, submission_id),
            ).fetchall()
            for candidate, attempts in rows:
                if max_claims is not None and attempts >= max_claims:
                    conn.execute(
                        """
                        UPDATE submissions
                        SET state = 'failed', claimed_by = NULL,
                            lease_expires_at = NULL, error = ?,
                            updated_at = ?
                        WHERE id = ?
                        """,
                        (
                            f"abandoned after {attempts} failed claims "
                            "(worker crash loop?)",
                            now,
                            candidate,
                        ),
                    )
                    continue
                conn.execute(
                    """
                    UPDATE submissions
                    SET state = 'running', claimed_by = ?,
                        lease_expires_at = ?, attempts = attempts + 1,
                        code_version = ?, updated_at = ?
                    WHERE id = ?
                    """,
                    (
                        worker_id,
                        now + lease_seconds,
                        self.code_version,
                        now,
                        candidate,
                    ),
                )
                claimed_id = candidate
                break
            crash_point("lease-claim-pre-commit")
        crash_point("lease-claim-post-commit")
        if claimed_id is None:
            return None
        return self.submission(claimed_id)

    def heartbeat_submission(
        self,
        submission_id: int,
        worker_id: str,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        now: Optional[float] = None,
    ) -> bool:
        """Extend the lease; ``False`` means the lease was lost.

        Guarded on ``claimed_by``: a worker whose lease expired and
        was re-claimed cannot resurrect it — it must abort (the new
        holder owns the submission now).
        """
        now = self.db.now() if now is None else now
        with self._write() as conn:
            cursor = conn.execute(
                """
                UPDATE submissions
                SET lease_expires_at = ?, updated_at = ?
                WHERE id = ? AND state = 'running' AND claimed_by = ?
                """,
                (now + lease_seconds, now, submission_id, worker_id),
            )
            held = cursor.rowcount == 1
            crash_point("lease-heartbeat-pre-commit")
        crash_point("lease-heartbeat-post-commit")
        return held

    def release_submission(
        self,
        submission_id: int,
        worker_id: str,
        state: str,
        now: Optional[float] = None,
        **fields: Any,
    ) -> bool:
        """Release a held lease into ``state`` (guarded, fenced).

        Only the current holder succeeds (``True``); a stale worker's
        release is a no-op returning ``False`` — so a submission
        reaches its terminal state exactly once no matter how many
        expired claimants are still alive.  ``state='pending'``
        requeues (graceful drain) and rings the idle workers'
        doorbells; ``done``/``failed`` are terminal and may carry
        ``ok_points``/``failed_points``/``error``.
        """
        if state not in ("pending", "done", "failed"):
            raise ConfigurationError(
                f"cannot release a lease into state {state!r}"
            )
        now = self.db.now() if now is None else now
        assignments = "".join(
            f", {name} = ?" for name in fields
        )
        with self._write() as conn:
            cursor = conn.execute(
                f"""
                UPDATE submissions
                SET state = ?, claimed_by = NULL,
                    lease_expires_at = NULL, updated_at = ?{assignments}
                WHERE id = ? AND state = 'running' AND claimed_by = ?
                """,
                (state, now, *fields.values(), submission_id, worker_id),
            )
            released = cursor.rowcount == 1
            crash_point("lease-release-pre-commit")
        crash_point("lease-release-post-commit")
        if released and state == "pending":
            wake.ring(self.directory)
        return released

    def run_claimed_submission(
        self,
        submission_id: int,
        runner: Any,
        worker_id: str,
        workers: Optional[int] = None,
        policy: Optional[Any] = None,
        shard_points: int = DEFAULT_SHARD_POINTS,
        on_outcome: Optional[Any] = None,
    ) -> Tuple[Any, bool]:
        """Execute a submission this worker has claimed.

        The claim already flipped the state to ``running`` and stamped
        the code version, so this only checks the fence, runs the
        store-backed sweep (resuming past committed points), finalizes
        the columns and releases the lease into ``done``/``failed``
        with a guarded update.  Returns ``(result, released)`` —
        ``released=False`` means the lease was lost mid-run and
        another worker owns the terminal transition.
        """
        from repro.experiments.sweep import run_sweep, runner_name

        record = self.submission(submission_id)
        if record["state"] != "running" or record["claimed_by"] != worker_id:
            raise LeaseError(
                f"submission {submission_id} is not held by "
                f"{worker_id!r} (state={record['state']!r}, "
                f"claimed_by={record['claimed_by']!r}); claim it first"
            )
        spec = SweepSpec.from_dict(json.loads(record["spec_json"]))
        name = runner_name(runner)
        if name != record["runner"]:
            raise ConfigurationError(
                f"submission {submission_id} was recorded for runner "
                f"{record['runner']!r}, got {name!r}"
            )
        try:
            result = run_sweep(
                spec,
                runner,
                workers=workers,
                cache=self.sweep_cache(),
                policy=policy,
                journal=self.run_journal(spec.experiment_id, name),
                resume=True,
                on_outcome=on_outcome,
            )
        except BaseException as exc:
            from repro.errors import WorkerDrainError

            if isinstance(exc, WorkerDrainError):
                # Graceful drain: requeue; committed points stay.
                self.release_submission(
                    submission_id, worker_id, "pending"
                )
            else:
                self.release_submission(
                    submission_id,
                    worker_id,
                    "failed",
                    error=f"{type(exc).__name__}: {exc}",
                )
            raise
        if result.failure_count == 0:
            self.finalize_sweep(spec, name, shard_points=shard_points)
        released = self.release_submission(
            submission_id,
            worker_id,
            "done" if result.failure_count == 0 else "failed",
            ok_points=result.ok_count,
            failed_points=result.failure_count,
            error=(
                None if result.failure_count == 0 else
                result.failures()[0].describe()
            ),
        )
        return result, released

    def results_rows(
        self,
        submission_id: int,
        metrics: Optional[Sequence[str]] = None,
    ) -> Tuple[List[str], List[List[Any]]]:
        """``(headers, rows)`` for one submission's grid — read off the
        metric columns, one point per row, in spec point order.

        Without ``metrics`` the table lists every metric some point
        returns, by name.  A value the columns cannot hold (a string,
        an int outside int64) is read from its point's inline residual
        instead; the residuals are read (in one query) only when a
        requested metric is missing from some point's columns.  A
        requested metric no point returns raises
        :class:`ConfigurationError`.
        """
        record = self.submission(submission_id)
        spec = SweepSpec.from_dict(json.loads(record["spec_json"]))
        runner = record["runner"]
        # The rows live under the code version that executed them.
        scoped = ResultStore(
            self.directory, code_version=record["code_version"]
        )
        scoped.db = self.db
        scoped.stats = self.stats
        scoped._shard_cache = self._shard_cache
        points = spec.points()
        residuals: Optional[Dict[int, Any]] = None
        if metrics is None:
            residuals = scoped._residuals(spec, runner, points)
            names = sorted(
                set(scoped.sweep_metrics(spec, runner)).union(
                    *(r for r in residuals.values() if isinstance(r, dict))
                )
            )
        else:
            names = list(metrics)
        columns = []
        if names:
            # At most one last_read_at write for the whole table.
            sweep_id, n_points, last_read_at = scoped._finalized_sweep(
                spec, runner
            )
            columns = scoped._read_columns(sweep_id, n_points, names)
            scoped._touch_read(sweep_id, last_read_at)
        absent = [column.kinds == col.KIND_ABSENT for column in columns]
        if residuals is None and any(mask.any() for mask in absent):
            residuals = scoped._residuals(spec, runner, points)
            unknown = [
                column.metric
                for column, mask in zip(columns, absent)
                if mask.all() and not any(
                    isinstance(r, dict) and column.metric in r
                    for r in residuals.values()
                )
            ]
            if unknown:
                raise ConfigurationError(
                    f"no point of submission {submission_id} returns "
                    f"metric(s) {', '.join(map(repr, unknown))}"
                )
        values = [column.tolist() for column in columns]
        rows = []
        for point in points:
            row: List[Any] = [point.index, canonical_params(point.params)]
            for column, column_values in zip(columns, values):
                if column.kinds[point.index] != col.KIND_ABSENT:
                    row.append(column_values[point.index])
                    continue
                residual = residuals.get(point.index)
                row.append(
                    residual.get(column.metric)
                    if isinstance(residual, dict) else None
                )
            rows.append(row)
        return ["index", "params"] + names, rows

    def _residuals(
        self,
        spec: SweepSpec,
        runner_name: str,
        points: Sequence[SweepPoint],
    ) -> Dict[int, Any]:
        """Point index -> decoded inline payload, for each point that
        has one and whose payload decodes."""
        keys = [_point_store_key(point) for point in points]
        stored = self._stored_points(spec, runner_name, keys)
        residuals: Dict[int, Any] = {}
        for point, key in zip(points, keys):
            entry = stored.get(key)
            if entry is None or entry[2] is None:
                continue
            try:
                residuals[point.index] = self._decode_inline(*entry[1:3])
            except Exception:
                continue
        return residuals

    # -- verification / gc ---------------------------------------------------

    def verify(self) -> Dict[str, Any]:
        """Read-only health report: SQLite integrity + shard headers."""
        report: Dict[str, Any] = {"ok": True, "issues": []}
        try:
            self.db.verify()
        except StoreCorruptError as exc:
            report["ok"] = False
            report["issues"].append(str(exc))
        conn = self.db.connection()
        for shard_id, filename in conn.execute(
            "SELECT id, filename FROM shards"
        ).fetchall():
            path = self.db.shards_dir / filename
            try:
                # Opening reads (and checks) the zip directory.
                col.open_shard(path).close()
            except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
                report["ok"] = False
                report["issues"].append(
                    f"shard {filename} (id {shard_id}): {exc}"
                )
        for table in ("points", "outcomes", "sweeps", "submissions"):
            report[table] = conn.execute(
                f"SELECT COUNT(*) FROM {table}"
            ).fetchone()[0]
        return report

    def gc(
        self,
        keep_days: Optional[float] = None,
        dry_run: bool = False,
    ) -> Dict[str, Any]:
        """Collect garbage: orphan shard files, stale temp files and —
        with ``keep_days`` — whole sweeps neither written nor read
        within that window (their points, shards and files).

        Quarantined ``*.corrupt`` files are never touched: they are
        evidence.  Returns a report of what was (or with ``dry_run``
        would be) removed.
        """
        conn = self.db.connection()
        referenced = {
            filename for (filename,) in conn.execute(
                "SELECT filename FROM shards"
            )
        }
        report: Dict[str, Any] = {
            "orphan_files": [],
            "sweeps_removed": 0,
            "points_removed": 0,
            "bytes_freed": 0,
            "dry_run": dry_run,
        }
        stale_sweeps: List[int] = []
        if keep_days is not None:
            horizon = self.db.now() - keep_days * 86400.0
            for sweep_id, in conn.execute(
                """
                SELECT id FROM sweeps
                WHERE max(updated_at, coalesce(last_read_at, 0)) < ?
                """,
                (horizon,),
            ).fetchall():
                stale_sweeps.append(sweep_id)
            stale_files = {
                filename for (filename,) in conn.execute(
                    f"""
                    SELECT filename FROM shards WHERE sweep_id IN
                    ({",".join("?" * len(stale_sweeps))})
                    """,
                    stale_sweeps,
                )
            } if stale_sweeps else set()
            referenced -= stale_files
        if self.db.shards_dir.is_dir():
            for path in sorted(self.db.shards_dir.iterdir()):
                if path.name.endswith(".corrupt"):
                    continue
                if path.name in referenced:
                    continue
                report["orphan_files"].append(path.name)
                report["bytes_freed"] += path.stat().st_size
                if not dry_run:
                    with contextlib.suppress(OSError):
                        path.unlink()
        if stale_sweeps and not dry_run:
            with self._write() as conn:
                for sweep_id in stale_sweeps:
                    identity = conn.execute(
                        "SELECT experiment_id, runner, code_version"
                        " FROM sweeps WHERE id = ?",
                        (sweep_id,),
                    ).fetchone()
                    removed = conn.execute(
                        "DELETE FROM points WHERE experiment_id = ?"
                        " AND runner = ? AND code_version = ?",
                        identity,
                    ).rowcount
                    report["points_removed"] += removed
                    conn.execute(
                        "DELETE FROM sweeps WHERE id = ?", (sweep_id,)
                    )
                    report["sweeps_removed"] += 1
        elif stale_sweeps:
            report["sweeps_removed"] = len(stale_sweeps)
        return report
