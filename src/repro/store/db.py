"""SQLite connection management for the result store.

:class:`StoreDB` owns exactly one database file (``store.sqlite3`` in
the store directory) and provides the durability spine every higher
layer builds on:

- **WAL mode, ``synchronous=NORMAL``** — a committed transaction
  survives a SIGKILL of the writer (the OS page cache persists across
  process death; only a kernel panic / power cut could lose the tail,
  which is out of scope for a local experiment store), while readers
  get snapshot isolation against the live writer.
- **Exclusive writer flock** (``store.sqlite3.lock``) — a second
  writer process raises :class:`~repro.errors.StoreLockedError`
  instead of interleaving; the kernel drops the lock when its holder
  dies, so crashed writers never leave stale locks.  The lock is
  fork-safe: a forked child drops its inherited handles so a pool
  worker outliving the orchestrator cannot pin the lock.
- **Validation with quarantine** — a garbage database file or an
  unreadable schema version is renamed to ``*.corrupt`` (plus its
  ``-wal``/``-shm`` siblings) and :class:`~repro.errors.
  StoreCorruptError` raised; reopening starts clean.  A *newer*
  schema version raises :class:`~repro.errors.StoreSchemaError`
  without touching the data.  An older version is migrated in one
  transaction on open.

The module also hosts :func:`crash_point`, the fault-injection hook
the crash-safety suite drives: when ``REPRO_STORE_FAULT`` names a
site (optionally ``site:N`` for the N-th hit), reaching that site
hard-exits the process with :data:`~repro.experiments.resilience.
CHAOS_EXIT_CODE` — a SIGKILL-equivalent crash at a chosen commit
boundary.
"""

from __future__ import annotations

import contextlib
import os
import sqlite3
import time
import weakref
from pathlib import Path
from typing import Dict, Iterator, Optional

from repro.errors import (
    StoreCorruptError,
    StoreLockedError,
    StoreSchemaError,
)
from repro.experiments.resilience import CHAOS_EXIT_CODE
from repro.store import schema as store_schema

try:  # POSIX advisory locks die with their holder (SIGKILL-safe).
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

#: Database file name inside a store directory — its presence is how
#: ``sweep_cache``/``run_sweep`` detect a store-backed directory.
STORE_DB_FILENAME = "store.sqlite3"

#: Environment variable naming a crash site (``site`` or ``site:N``).
FAULT_ENV = "REPRO_STORE_FAULT"

_fault_hits: Dict[str, int] = {}

#: Databases holding live locks, so forked children can drop their
#: inherited handles (a flock is shared across fork; see
#: :meth:`StoreDB._drop_inherited_handles`).
_LIVE_DBS: "Optional[weakref.WeakSet]" = None


def _register_fork_guard(db: "StoreDB") -> None:
    global _LIVE_DBS
    if _LIVE_DBS is None:
        _LIVE_DBS = weakref.WeakSet()
        if hasattr(os, "register_at_fork"):
            os.register_at_fork(
                after_in_child=lambda: [
                    entry._drop_inherited_handles()
                    for entry in list(_LIVE_DBS or ())
                ]
            )
    _LIVE_DBS.add(db)


def crash_point(site: str) -> None:
    """Hard-exit at ``site`` when ``REPRO_STORE_FAULT`` selects it.

    ``os._exit`` (no cleanup, no atexit, no flushes) is the closest
    in-process stand-in for SIGKILL; the crash-safety suite asserts
    that a store killed at *any* site reopens clean.
    """
    spec = os.environ.get(FAULT_ENV)
    if not spec:
        return
    name, _, count = spec.partition(":")
    if name != site:
        return
    _fault_hits[site] = _fault_hits.get(site, 0) + 1
    if _fault_hits[site] == int(count or 1):
        os._exit(CHAOS_EXIT_CODE)


class StoreDB:
    """One SQLite database with WAL durability and a writer flock.

    Connections are lazy: constructing a :class:`StoreDB` touches
    nothing on disk until :meth:`connection` (which creates and
    validates the database) or :meth:`acquire_writer` (which takes
    the lock) is called.
    """

    def __init__(
        self, directory: os.PathLike, shared_lock: bool = False
    ) -> None:
        self.directory = Path(directory)
        self.shared_lock = shared_lock
        self._conn: Optional[sqlite3.Connection] = None
        self._lock_handle = None

    # -- paths ---------------------------------------------------------------

    @property
    def db_path(self) -> Path:
        return self.directory / STORE_DB_FILENAME

    @property
    def lock_path(self) -> Path:
        return self.directory / (STORE_DB_FILENAME + ".lock")

    @property
    def shards_dir(self) -> Path:
        return self.directory / "shards"

    # -- fork safety ---------------------------------------------------------

    def _drop_inherited_handles(self) -> None:
        """Forked-child half of the lock contract.

        Closing the child's inherited lock handle keeps the flock
        owned by exactly the parent (the lock lives on the shared
        open file description, which survives until *every* holder
        closes it — so the parent keeps it, but a child that outlives
        a SIGKILL'd parent releases it).  The SQLite connection is
        *not* closed in the child — closing could roll back the
        parent's in-flight transaction through the shared file
        handle — it is simply forgotten; the child reconnects if it
        ever needs the store.
        """
        handle, self._lock_handle = self._lock_handle, None
        if handle is not None:
            try:
                handle.close()
            except OSError:  # pragma: no cover
                pass
        self._conn = None

    # -- writer lock ---------------------------------------------------------

    @property
    def holds_writer_lock(self) -> bool:
        return self._lock_handle is not None

    def acquire_writer(self) -> None:
        """Take the writer lock (idempotent).

        The default is an *exclusive* flock: exactly one writer per
        store, raising :class:`~repro.errors.StoreLockedError` when
        another live process holds any lock on it.  A store opened
        with ``shared_lock=True`` (the service worker pool and HTTP
        server) takes a *shared* flock instead: any number of shared
        holders coexist — per-submission mutual exclusion comes from
        the lease protocol, and SQLite's own WAL locking serialises
        their transactions — while exclusive single-writer tools and
        the shared pool still exclude each other both ways.  Degrades
        to no locking where ``fcntl`` is unavailable.
        """
        if self._lock_handle is not None or fcntl is None:
            return
        _register_fork_guard(self)
        self.directory.mkdir(parents=True, exist_ok=True)
        mode = fcntl.LOCK_SH if self.shared_lock else fcntl.LOCK_EX
        handle = open(self.lock_path, "a+b")
        try:
            fcntl.flock(handle.fileno(), mode | fcntl.LOCK_NB)
        except OSError:
            pid = "unknown"
            try:
                handle.seek(0)
                pid = (
                    handle.read(32).decode(errors="replace").strip()
                    or "unknown"
                )
            except OSError:  # pragma: no cover - unreadable lock file
                pass
            handle.close()
            wanted = "shared" if self.shared_lock else "exclusive"
            raise StoreLockedError(
                f"store {self.directory} is locked by another live "
                f"process (pid {pid}) against a {wanted} writer; "
                "concurrent writers outside the lease protocol would "
                "corrupt resume state — wait for it or use a "
                "different store directory"
            ) from None
        if not self.shared_lock:
            # Shared holders skip the pid stamp: truncating under a
            # shared lock would race with (and clobber) their peers.
            # A stamp already ours stays as it is: ext4 flushes a file
            # truncated to 0 when it is closed, which costs ten times
            # the flock on every re-acquire.
            stamp = f"{os.getpid()}\n".encode()
            handle.seek(0)
            if handle.read(len(stamp) + 1) != stamp:
                handle.truncate(0)
                handle.write(stamp)
                handle.flush()
        self._lock_handle = handle

    def release_writer(self) -> None:
        if self._lock_handle is not None:
            try:
                self._lock_handle.close()
            except OSError:  # pragma: no cover
                pass
            self._lock_handle = None

    # -- connection ----------------------------------------------------------

    def connection(self) -> sqlite3.Connection:
        """The validated connection (created/migrated on first use)."""
        if self._conn is None:
            self._conn = self._open()
        return self._conn

    def _open(self) -> sqlite3.Connection:
        self.directory.mkdir(parents=True, exist_ok=True)
        fresh = not self.db_path.exists()
        # check_same_thread=False: the HTTP service serves requests
        # from handler threads behind a mutex — the store object is
        # still single-threaded by contract, just not pinned to the
        # thread that happened to open it.
        conn = sqlite3.connect(
            self.db_path, timeout=30.0, check_same_thread=False
        )
        conn.isolation_level = None  # explicit BEGIN/COMMIT only
        try:
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                conn.execute("PRAGMA synchronous=NORMAL")
                conn.execute("PRAGMA foreign_keys=ON")
                conn.execute("PRAGMA busy_timeout=30000")
                if fresh:
                    store_schema.create_schema(conn)
                    return conn
                version = store_schema.read_schema_version(conn)
            except (sqlite3.Error, ValueError) as exc:
                # A garbage file can fail as early as the first PRAGMA
                # ("file is not a database"), not just at the version
                # read — quarantine either way.  A brand-new file has
                # nothing worth quarantining.
                if fresh:
                    raise
                conn.close()
                quarantined = self.quarantine_database()
                raise StoreCorruptError(
                    f"{self.db_path} is not a readable result store "
                    f"({exc}); quarantined to {quarantined} — reopen "
                    "to start a fresh store"
                ) from exc
            if version > store_schema.SCHEMA_VERSION:
                conn.close()
                raise StoreSchemaError(
                    f"{self.db_path} has schema version {version}, "
                    f"newer than this library understands "
                    f"({store_schema.SCHEMA_VERSION}); upgrade the "
                    "library — the store was left untouched"
                )
            if version < store_schema.SCHEMA_VERSION:
                store_schema.migrate(conn, version)
            return conn
        except BaseException:
            with contextlib.suppress(sqlite3.Error):
                conn.close()
            raise

    @contextlib.contextmanager
    def transaction(self) -> Iterator[sqlite3.Connection]:
        """``BEGIN IMMEDIATE`` ... ``COMMIT`` (rollback on error).

        IMMEDIATE takes the SQLite write lock up front, so a
        transaction never fails at COMMIT after doing half its reads.
        """
        conn = self.connection()
        conn.execute("BEGIN IMMEDIATE")
        try:
            yield conn
        except BaseException:
            with contextlib.suppress(sqlite3.Error):
                conn.execute("ROLLBACK")
            raise
        conn.execute("COMMIT")

    # -- quarantine / verification -------------------------------------------

    def quarantine_database(self) -> Path:
        """Rename the database (and WAL/SHM siblings) to ``*.corrupt``."""
        if self._conn is not None:
            with contextlib.suppress(sqlite3.Error):
                self._conn.close()
            self._conn = None
        stamp = f"{int(time.time() * 1000):x}"
        quarantined = self.db_path.with_name(
            self.db_path.name + f".{stamp}.corrupt"
        )
        os.replace(self.db_path, quarantined)
        for suffix in ("-wal", "-shm"):
            sibling = self.db_path.with_name(self.db_path.name + suffix)
            with contextlib.suppress(OSError):
                os.replace(
                    sibling, quarantined.with_name(quarantined.name + suffix)
                )
        return quarantined

    def verify(self) -> None:
        """Raise :class:`~repro.errors.StoreCorruptError` unless the
        database passes SQLite's integrity check."""
        row = self.connection().execute(
            "PRAGMA integrity_check"
        ).fetchone()
        if row is None or row[0] != "ok":
            raise StoreCorruptError(
                f"{self.db_path} failed integrity_check: "
                f"{row[0] if row else 'no result'}"
            )

    def close(self) -> None:
        if self._conn is not None:
            with contextlib.suppress(sqlite3.Error):
                self._conn.close()
            self._conn = None
        self.release_writer()

    @staticmethod
    def now() -> float:
        return time.time()
