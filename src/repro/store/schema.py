"""Versioned SQLite schema for the durable result store.

One source of truth for every table the store owns, expressed as
explicit per-version DDL plus a linear migration chain.  The schema
version lives in the ``meta`` table (``key='schema_version'``); opening
a store compares it against :data:`SCHEMA_VERSION`:

- equal — use as is;
- older — run each migration step inside one transaction (a crash
  mid-migration rolls back to the old, still-valid version);
- newer — raise :class:`~repro.errors.StoreSchemaError` (the data is
  from a future library; never quarantine it);
- missing/garbage — the file is not a store; quarantine it.

Tables (v3):

``meta``
    Schema version and store identity.
``sweeps``
    One row per finalized sweep grid: ``(experiment_id, runner,
    code_version, spec_digest)`` identity, point count, columnar
    state, gc bookkeeping (``last_read_at``, v2).
``points``
    One row per executed sweep point, keyed by (experiment, runner,
    code version, canonical params + replication + seed).  The
    value lives inline (``payload``: canonical JSON for scalar metric
    dicts, pickle otherwise) until finalization moves scalar metrics
    into a columnar shard (``shard_id``/``shard_pos``).
``shards``
    One row per npz metric shard: owning sweep, point range, member
    metrics.  Files live under ``shards/`` next to the database.
``outcomes``
    Terminal point :class:`~repro.experiments.resilience.Outcome`
    records — the store-backed run journal.
``campaigns`` / ``stages`` / ``stage_values``
    Campaign identity, terminal stage
    :class:`~repro.experiments.resilience.Outcome` records, and pickled
    stage values with digests — the store-backed campaign journal.
``submissions``
    Queue of submitted sweeps for the ``store submit|status|results``
    verbs — and, since v3, the *work queue* the service worker pool
    drains: ``claimed_by``/``lease_expires_at`` implement lease-based
    claiming (see :mod:`repro.service.workers`), ``attempts`` counts
    claims so poison submissions fail instead of crash-looping.
``code_versions``
    First-seen registry of code versions (v2, gc reporting).
"""

from __future__ import annotations

import sqlite3
from typing import Callable, Dict, List

#: The schema version this code writes and expects.
SCHEMA_VERSION = 3

#: The oldest version :func:`migrate` can upgrade from.
OLDEST_SUPPORTED_VERSION = 1

_V1_DDL: List[str] = [
    """
    CREATE TABLE meta (
        key   TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE sweeps (
        id            INTEGER PRIMARY KEY,
        experiment_id TEXT NOT NULL,
        runner        TEXT NOT NULL,
        code_version  TEXT NOT NULL,
        spec_digest   TEXT NOT NULL,
        spec_json     TEXT,
        n_points      INTEGER NOT NULL,
        state         TEXT NOT NULL DEFAULT 'open',
        created_at    REAL NOT NULL,
        updated_at    REAL NOT NULL,
        UNIQUE (experiment_id, runner, code_version, spec_digest)
    )
    """,
    """
    CREATE TABLE points (
        id            INTEGER PRIMARY KEY,
        experiment_id TEXT NOT NULL,
        runner        TEXT NOT NULL,
        code_version  TEXT NOT NULL,
        point_key     TEXT NOT NULL,
        kind          TEXT NOT NULL,
        payload       BLOB,
        shard_id      INTEGER REFERENCES shards (id) ON DELETE SET NULL,
        shard_pos     INTEGER,
        created_at    REAL NOT NULL,
        updated_at    REAL NOT NULL,
        UNIQUE (experiment_id, runner, code_version, point_key)
    )
    """,
    """
    CREATE TABLE shards (
        id          INTEGER PRIMARY KEY,
        sweep_id    INTEGER NOT NULL REFERENCES sweeps (id)
                    ON DELETE CASCADE,
        seq         INTEGER NOT NULL,
        filename    TEXT NOT NULL,
        start_index INTEGER NOT NULL,
        count       INTEGER NOT NULL,
        metrics     TEXT NOT NULL,
        created_at  REAL NOT NULL,
        UNIQUE (sweep_id, seq)
    )
    """,
    """
    CREATE TABLE outcomes (
        experiment_id   TEXT NOT NULL,
        runner          TEXT NOT NULL,
        code_version    TEXT NOT NULL,
        point_key       TEXT NOT NULL,
        point_index     INTEGER NOT NULL,
        status          TEXT NOT NULL,
        attempts        INTEGER NOT NULL,
        error           TEXT,
        traceback       TEXT,
        attempt_seconds TEXT NOT NULL DEFAULT '[]',
        cached          INTEGER NOT NULL DEFAULT 0,
        resumed         INTEGER NOT NULL DEFAULT 0,
        updated_at      REAL NOT NULL,
        PRIMARY KEY (experiment_id, runner, code_version, point_key)
    )
    """,
    """
    CREATE TABLE campaigns (
        id           INTEGER PRIMARY KEY,
        name         TEXT NOT NULL,
        seed         INTEGER NOT NULL,
        code_version TEXT NOT NULL,
        created_at   REAL NOT NULL,
        updated_at   REAL NOT NULL,
        UNIQUE (name, seed, code_version)
    )
    """,
    """
    CREATE TABLE stages (
        campaign_id     INTEGER NOT NULL REFERENCES campaigns (id)
                        ON DELETE CASCADE,
        name            TEXT NOT NULL,
        status          TEXT NOT NULL,
        attempts        INTEGER NOT NULL DEFAULT 1,
        error           TEXT,
        traceback       TEXT,
        attempt_seconds TEXT NOT NULL DEFAULT '[]',
        result_digest   TEXT,
        resumed         INTEGER NOT NULL DEFAULT 0,
        updated_at      REAL NOT NULL,
        PRIMARY KEY (campaign_id, name)
    )
    """,
    """
    CREATE TABLE stage_values (
        campaign_id INTEGER NOT NULL REFERENCES campaigns (id)
                    ON DELETE CASCADE,
        stage       TEXT NOT NULL,
        digest      TEXT NOT NULL,
        value       BLOB NOT NULL,
        updated_at  REAL NOT NULL,
        PRIMARY KEY (campaign_id, stage)
    )
    """,
    """
    CREATE TABLE submissions (
        id            INTEGER PRIMARY KEY,
        name          TEXT NOT NULL,
        kind          TEXT NOT NULL DEFAULT 'scenario-sweep',
        spec_json     TEXT NOT NULL,
        experiment_id TEXT NOT NULL,
        runner        TEXT NOT NULL,
        code_version  TEXT NOT NULL,
        state         TEXT NOT NULL DEFAULT 'pending',
        error         TEXT,
        ok_points     INTEGER,
        failed_points INTEGER,
        created_at    REAL NOT NULL,
        updated_at    REAL NOT NULL
    )
    """,
    """
    CREATE INDEX idx_points_sweep_scan
        ON points (experiment_id, runner, code_version)
    """,
]

_V2_MIGRATION: List[str] = [
    # gc bookkeeping: retention decisions need "when was this sweep
    # last read", which v1 never tracked.
    "ALTER TABLE sweeps ADD COLUMN last_read_at REAL",
    """
    CREATE TABLE code_versions (
        version    TEXT PRIMARY KEY,
        first_seen REAL NOT NULL
    )
    """,
    """
    CREATE INDEX idx_submissions_state
        ON submissions (state, updated_at)
    """,
]

_V3_MIGRATION: List[str] = [
    # Lease-based claiming for the service worker pool: a worker
    # claims a pending (or expired-lease) submission atomically,
    # heartbeats to extend the lease, and releases it with a guarded
    # update — a dead worker's lease simply expires, so another
    # worker re-runs only the uncommitted remainder.
    "ALTER TABLE submissions ADD COLUMN claimed_by TEXT",
    "ALTER TABLE submissions ADD COLUMN lease_expires_at REAL",
    # Claim attempts so a poison submission (one that reliably kills
    # its worker) lands in 'failed' instead of crash-looping the pool.
    "ALTER TABLE submissions ADD COLUMN attempts INTEGER NOT NULL DEFAULT 0",
    """
    CREATE INDEX idx_submissions_lease
        ON submissions (state, lease_expires_at)
    """,
]

#: from-version -> DDL statements lifting the schema one version.
MIGRATIONS: Dict[int, List[str]] = {
    1: _V2_MIGRATION,
    2: _V3_MIGRATION,
}


def _atomic(conn: sqlite3.Connection, statements_fn: Callable[[], None]) -> None:
    """Run ``statements_fn`` inside one explicit transaction.

    The store connection is in autocommit mode (``isolation_level =
    None``), where ``with conn:`` would commit each DDL statement
    individually — an explicit BEGIN..COMMIT is the only way to make
    schema creation/migration all-or-nothing.
    """
    own = not conn.in_transaction
    if own:
        conn.execute("BEGIN IMMEDIATE")
    try:
        statements_fn()
    except BaseException:
        if own and conn.in_transaction:
            conn.execute("ROLLBACK")
        raise
    if own:
        conn.execute("COMMIT")


def create_schema(conn: sqlite3.Connection, version: int = SCHEMA_VERSION) -> None:
    """Create a fresh schema at ``version`` (v1 kept for migration tests)."""
    if not OLDEST_SUPPORTED_VERSION <= version <= SCHEMA_VERSION:
        raise ValueError(f"cannot create schema version {version}")

    def build() -> None:
        for statement in _V1_DDL:
            conn.execute(statement)
        for step in range(1, version):
            for statement in MIGRATIONS[step]:
                conn.execute(statement)
        conn.execute(
            "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
            (str(version),),
        )

    _atomic(conn, build)


def read_schema_version(conn: sqlite3.Connection) -> int:
    """The stored schema version (raises ``sqlite3.Error``/``ValueError``
    when the file carries no readable version — i.e. is not a store)."""
    row = conn.execute(
        "SELECT value FROM meta WHERE key = 'schema_version'"
    ).fetchone()
    if row is None:
        raise ValueError("store has no schema_version row")
    return int(row[0])


def migrate(
    conn: sqlite3.Connection,
    from_version: int,
    to_version: int = SCHEMA_VERSION,
    on_step: Callable[[int], None] = lambda v: None,
) -> int:
    """Lift the schema from ``from_version`` to ``to_version``.

    The whole chain runs in one transaction: a crash mid-migration
    rolls back to the old version, never a half-migrated hybrid.
    Returns the number of versions applied.
    """
    applied = 0

    def lift() -> None:
        nonlocal applied
        for step in range(from_version, to_version):
            for statement in MIGRATIONS[step]:
                conn.execute(statement)
            applied += 1
            on_step(step + 1)
        if applied:
            conn.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (str(to_version),),
            )

    _atomic(conn, lift)
    return applied
