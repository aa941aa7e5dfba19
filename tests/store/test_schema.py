"""Schema lifecycle: creation, migration, quarantine, future versions.

The open-time contract of :class:`~repro.store.db.StoreDB`: a fresh
directory gets the current schema; an older store is migrated in one
transaction; a *newer* store raises without being touched; a garbage
file is quarantined to ``*.corrupt`` and the next open starts clean.
"""

import sqlite3

import pytest

from repro.errors import StoreCorruptError, StoreSchemaError
from repro.store import ResultStore, SCHEMA_VERSION, StoreDB
from repro.store.schema import (
    OLDEST_SUPPORTED_VERSION,
    create_schema,
    migrate,
    read_schema_version,
)


class TestFreshAndMigration:
    def test_fresh_store_writes_current_version(self, tmp_path):
        db = StoreDB(tmp_path)
        assert read_schema_version(db.connection()) == SCHEMA_VERSION
        db.close()

    def test_v1_store_migrates_to_current_preserving_rows(self, tmp_path):
        path = tmp_path / "store.sqlite3"
        conn = sqlite3.connect(path)
        create_schema(conn, version=1)
        conn.execute(
            "INSERT INTO points (experiment_id, runner, code_version,"
            " point_key, kind, payload, created_at, updated_at)"
            " VALUES ('e', 'r', 'v', 'k', 'json', ?, 0, 0)",
            (b'{"y": 1.5}',),
        )
        conn.commit()
        conn.close()

        db = StoreDB(tmp_path)
        conn = db.connection()
        assert read_schema_version(conn) == SCHEMA_VERSION
        # v1 rows survive, v2 columns and tables exist.
        assert conn.execute("SELECT count(*) FROM points").fetchone() == (1,)
        conn.execute("SELECT last_read_at FROM sweeps")
        conn.execute("SELECT version, first_seen FROM code_versions")
        db.close()

    def test_migrated_store_round_trips_through_the_api(self, tmp_path):
        conn = sqlite3.connect(tmp_path / "store.sqlite3")
        create_schema(conn, version=1)
        conn.close()
        with ResultStore(tmp_path, code_version="pinned") as store:
            assert store.verify()["ok"]

    def test_migration_steps_reported_in_order(self, tmp_path):
        conn = sqlite3.connect(tmp_path / "store.sqlite3")
        create_schema(conn, version=1)
        seen = []
        applied = migrate(conn, 1, on_step=seen.append)
        assert applied == SCHEMA_VERSION - 1
        assert seen == list(range(2, SCHEMA_VERSION + 1))
        assert read_schema_version(conn) == SCHEMA_VERSION
        conn.close()

    def test_migrate_is_noop_at_current_version(self, tmp_path):
        db = StoreDB(tmp_path)
        conn = db.connection()
        assert migrate(conn, SCHEMA_VERSION) == 0
        db.close()

    def test_unknown_create_version_rejected(self, tmp_path):
        conn = sqlite3.connect(tmp_path / "x.sqlite3")
        with pytest.raises(ValueError):
            create_schema(conn, version=0)
        with pytest.raises(ValueError):
            create_schema(conn, version=SCHEMA_VERSION + 1)
        conn.close()


def _layout(conn):
    return conn.execute(
        "SELECT type, name, sql FROM sqlite_master ORDER BY type, name"
    ).fetchall()


@pytest.mark.parametrize(
    "from_version", range(OLDEST_SUPPORTED_VERSION, SCHEMA_VERSION + 1)
)
def test_every_supported_version_migrates_to_the_fresh_layout(
    tmp_path, from_version
):
    fresh = sqlite3.connect(tmp_path / "fresh.sqlite3")
    create_schema(fresh)
    old = sqlite3.connect(tmp_path / "old.sqlite3")
    create_schema(old, version=from_version)
    steps = []
    assert migrate(old, from_version, on_step=steps.append) == (
        SCHEMA_VERSION - from_version
    )
    assert steps == list(range(from_version + 1, SCHEMA_VERSION + 1))
    assert read_schema_version(old) == SCHEMA_VERSION
    assert _layout(old) == _layout(fresh)
    fresh.close()
    old.close()


class TestFutureVersion:
    def test_newer_schema_raises_without_quarantine(self, tmp_path):
        db = StoreDB(tmp_path)
        conn = db.connection()
        conn.execute(
            "UPDATE meta SET value = ? WHERE key = 'schema_version'",
            (str(SCHEMA_VERSION + 5),),
        )
        db.close()

        reopened = StoreDB(tmp_path)
        with pytest.raises(StoreSchemaError, match="newer"):
            reopened.connection()
        # The data was NOT quarantined: nothing moved, nothing deleted.
        assert (tmp_path / "store.sqlite3").exists()
        assert not list(tmp_path.glob("*.corrupt"))
        reopened.close()


class TestGarbageQuarantine:
    def test_garbage_file_quarantined_then_fresh_open(self, tmp_path):
        (tmp_path / "store.sqlite3").write_bytes(b"this is not sqlite\0\1\2")
        db = StoreDB(tmp_path)
        with pytest.raises(StoreCorruptError, match="quarantined"):
            db.connection()
        corrupt = list(tmp_path.glob("store.sqlite3.*.corrupt"))
        assert len(corrupt) == 1
        assert corrupt[0].read_bytes().startswith(b"this is not sqlite")

        # The same handle reopens a brand-new, valid store.
        assert read_schema_version(db.connection()) == SCHEMA_VERSION
        db.close()

    def test_valid_sqlite_without_version_row_quarantined(self, tmp_path):
        conn = sqlite3.connect(tmp_path / "store.sqlite3")
        conn.execute("CREATE TABLE unrelated (x)")
        conn.commit()
        conn.close()
        db = StoreDB(tmp_path)
        with pytest.raises(StoreCorruptError):
            db.connection()
        assert list(tmp_path.glob("*.corrupt"))
        db.close()
