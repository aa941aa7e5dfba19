"""Writer exclusion, fork safety, and reader snapshot isolation.

One live writer per store — a second writer gets a clean
:class:`~repro.errors.StoreLockedError` naming the holder, from the
same process or another one.  Readers never block and never observe
uncommitted state: WAL snapshot isolation, pinned here both
deterministically (reads inside an open write transaction) and under
hypothesis-randomised write/read interleavings.
"""

import json
import os
import sqlite3
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StoreLockedError
from repro.store import ResultStore

from tests.store.conftest import grid_spec, run_driver, scalar_runner


class TestWriterExclusion:
    def test_second_writer_same_process_fails_fast(self, store):
        store.acquire()
        second = ResultStore(store.directory)
        with pytest.raises(StoreLockedError, match=str(os.getpid())):
            second.acquire()
        second.close()

    def test_release_lets_the_next_writer_in(self, store):
        store.acquire()
        store.release()
        second = ResultStore(store.directory)
        second.acquire()
        second.close()

    def test_acquire_is_idempotent(self, store):
        store.acquire()
        store.acquire()
        store.release()

    def test_second_writer_across_processes(self, tmp_path):
        import threading

        script = (
            "import sys, time\n"
            "from pathlib import Path\n"
            "from repro.store import ResultStore\n"
            "workdir = Path(sys.argv[1])\n"
            "store = ResultStore(workdir / 'store')\n"
            "store.acquire()\n"
            "(workdir / 'held').touch()\n"
            "while not (workdir / 'stop').exists():\n"
            "    time.sleep(0.05)\n"
        )
        thread = threading.Thread(
            target=run_driver, args=(script, tmp_path),
            kwargs={"timeout": 60},
        )
        thread.start()
        try:
            deadline = time.time() + 30
            while not (tmp_path / "held").exists():
                assert time.time() < deadline, "holder never started"
                time.sleep(0.02)
            contender = ResultStore(tmp_path / "store")
            with pytest.raises(StoreLockedError, match="locked by another"):
                contender.acquire()
            contender.close()
        finally:
            (tmp_path / "stop").touch()
            thread.join(timeout=60)

    def test_dead_holder_releases_the_lock(self, tmp_path):
        """flock dies with its process: a SIGKILL'd writer leaves no
        stale lock for the next run to trip over."""
        script = (
            "import os, sys\n"
            "from pathlib import Path\n"
            "from repro.store import ResultStore\n"
            "store = ResultStore(Path(sys.argv[1]) / 'store')\n"
            "store.acquire()\n"
            "os._exit(9)\n"  # no release, no cleanup
        )
        proc = run_driver(script, tmp_path)
        assert proc.returncode == 9
        fresh = ResultStore(tmp_path / "store")
        fresh.acquire()  # must not raise
        fresh.close()


class TestLockStamp:
    """An exclusive writer stamps its pid into the lock file only when
    the file does not already hold exactly that stamp: rewriting it on
    every re-acquire costs a flush per acquire on ext4."""

    def test_reacquire_leaves_the_stamp_untouched(self, store):
        path = store.db.lock_path
        store.acquire()
        store.release()
        before = (path.read_bytes(), path.stat().st_mtime_ns)
        assert before[0] == f"{os.getpid()}\n".encode()
        time.sleep(0.05)  # past the file system's timestamp granularity
        for _ in range(3):
            store.acquire()
            store.release()
        assert (path.read_bytes(), path.stat().st_mtime_ns) == before

    @pytest.mark.parametrize("stale", [
        b"1\n",                                   # another pid, shorter
        f"{os.getpid()}0\n".encode(),             # longer
        f"{os.getpid()}".encode(),                # no newline
        f"{os.getpid()}\n\n".encode(),            # ours plus a tail
        b"",
        b"\xff\xfe garbage",                      # not UTF-8
    ])
    def test_any_other_stamp_is_rewritten(self, store, stale):
        path = store.db.lock_path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(stale)
        store.acquire()
        assert path.read_bytes() == f"{os.getpid()}\n".encode()
        store.release()

    @pytest.mark.parametrize("content", [None, b"", b"1\n"])
    def test_shared_holder_never_writes(self, store_dir, content):
        store_dir.mkdir(parents=True)
        shared = ResultStore(store_dir, shared_writer=True)
        lock = shared.db.lock_path
        if content is not None:
            lock.write_bytes(content)
            before = lock.stat().st_mtime_ns
            time.sleep(0.05)
        shared.acquire()
        shared.release()
        assert lock.read_bytes() == (content or b"")
        if content is not None:
            assert lock.stat().st_mtime_ns == before


_FORK_DRIVER = """
import json, os, sys
from pathlib import Path

from repro.errors import StoreLockedError
from repro.store import ResultStore

workdir = Path(sys.argv[1])
store = ResultStore(workdir / "store", code_version="pinned")
store.open()
store.acquire()

pid = os.fork()
if pid == 0:
    # Forked child: the fork guard dropped the inherited handles, so
    # this process neither holds nor can steal the parent's lock.
    report = {
        "child_holds": store.db.holds_writer_lock,
        "child_conn_forgotten": store.db._conn is None,
    }
    try:
        ResultStore(workdir / "store").acquire()
        report["child_reacquire"] = "acquired"
    except StoreLockedError:
        report["child_reacquire"] = "locked"
    (workdir / "child.json").write_text(json.dumps(report))
    os._exit(0)

os.waitpid(pid, 0)
# The parent kept the flock across the child's exit (the lock lives
# on the parent's still-open file description).
try:
    ResultStore(workdir / "store").acquire()
    parent_probe = "acquired"
except StoreLockedError:
    parent_probe = "locked"
(workdir / "parent.json").write_text(json.dumps({
    "parent_holds": store.db.holds_writer_lock,
    "probe_while_held": parent_probe,
}))
store.close()
"""


class TestForkSafety:
    def test_forked_child_drops_handles_parent_keeps_lock(self, tmp_path):
        proc = run_driver(_FORK_DRIVER, tmp_path)
        assert proc.returncode == 0, proc.stderr
        child = json.loads((tmp_path / "child.json").read_text())
        parent = json.loads((tmp_path / "parent.json").read_text())
        assert child == {
            "child_holds": False,
            "child_conn_forgotten": True,
            "child_reacquire": "locked",
        }
        assert parent["parent_holds"] is True
        assert parent["probe_while_held"] == "locked"


class TestSnapshotIsolation:
    def _reader(self, store_dir):
        conn = sqlite3.connect(store_dir / "store.sqlite3", timeout=30.0)
        conn.execute("PRAGMA busy_timeout=30000")
        return conn

    def test_reader_never_sees_uncommitted_rows(self, store):
        spec = grid_spec(3, "iso")
        points = spec.points()
        store.acquire()
        reader = self._reader(store.directory)
        try:
            store.store_point(spec, "r", points[0], {"y": 0.0})
            with store.db.transaction() as conn:
                conn.execute(
                    "INSERT INTO points (experiment_id, runner,"
                    " code_version, point_key, kind, payload,"
                    " created_at, updated_at)"
                    " VALUES ('iso', 'r', 'pinned', 'in-flight',"
                    " 'json', ?, 0, 0)",
                    (b"{}",),
                )
                # Mid-transaction: the committed snapshot has 1 row.
                assert reader.execute(
                    "SELECT count(*) FROM points"
                ).fetchone() == (1,)
            assert reader.execute(
                "SELECT count(*) FROM points"
            ).fetchone() == (2,)
        finally:
            reader.close()

    @given(
        interleave=st.lists(
            st.sampled_from(["write", "read", "read-mid"]),
            min_size=4, max_size=24,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_randomised_interleavings_read_only_committed(
        self, tmp_path_factory, interleave
    ):
        base = tmp_path_factory.mktemp("iso")
        with ResultStore(base / "store", code_version="pinned") as store:
            store.acquire()
            store.open()
            spec = grid_spec(64, "iso-rand")
            points = spec.points()
            reader = self._reader(store.directory)
            committed = 0
            try:
                for op in interleave:
                    if committed >= len(points):
                        break
                    if op == "write":
                        store.store_point(
                            spec, "r", points[committed],
                            {"y": float(committed)},
                        )
                        committed += 1
                    elif op == "read":
                        assert reader.execute(
                            "SELECT count(*) FROM points"
                        ).fetchone() == (committed,)
                    else:  # read inside an open write transaction
                        with store.db.transaction() as conn:
                            conn.execute(
                                "UPDATE points SET updated_at ="
                                " updated_at + 1"
                            )
                            assert reader.execute(
                                "SELECT count(*),"
                                " coalesce(sum(updated_at), -1)"
                                " FROM points"
                            ).fetchone()[0] == committed
                assert reader.execute(
                    "SELECT count(*) FROM points"
                ).fetchone() == (committed,)
            finally:
                reader.close()


class TestConcurrentReaderProcess:
    def test_reader_process_sees_monotonic_committed_counts(
        self, tmp_path
    ):
        """A second *process* polling during an active write session
        observes only committed, never-decreasing point counts."""
        script = (
            "import json, sqlite3, sys, time\n"
            "from pathlib import Path\n"
            "workdir = Path(sys.argv[1])\n"
            "target = int(sys.argv[2])\n"
            "conn = sqlite3.connect(workdir / 'store' / 'store.sqlite3',"
            " timeout=30.0)\n"
            "seen = []\n"
            "deadline = time.time() + 60\n"
            "while time.time() < deadline:\n"
            "    (count,) = conn.execute("
            "'SELECT count(*) FROM points').fetchone()\n"
            "    seen.append(count)\n"
            "    if count >= target:\n"
            "        break\n"
            "    time.sleep(0.001)\n"
            "(workdir / 'seen.json').write_text(json.dumps(seen))\n"
        )
        n = 40
        with ResultStore(tmp_path / "store", code_version="pinned") as store:
            store.open()
            spec = grid_spec(n, "mono")
            points = spec.points()
            # Write the first point so the reader has a database file.
            store.store_point(spec, "r", points[0], {"y": 0.0})
            driver = tmp_path / "reader.py"
            driver.write_text(script, encoding="utf-8")
            env = dict(os.environ)
            src = str(
                __import__("pathlib").Path(__file__).resolve().parents[2]
                / "src"
            )
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p
            )
            proc = subprocess.Popen(
                [sys.executable, str(driver), str(tmp_path), str(n)],
                env=env,
            )
            try:
                for i in range(1, n):
                    store.store_point(spec, "r", points[i], {"y": float(i)})
                    time.sleep(0.001)
            finally:
                assert proc.wait(timeout=60) == 0
        seen = json.loads((tmp_path / "seen.json").read_text())
        assert seen, "reader never sampled"
        assert seen == sorted(seen), "committed counts went backwards"
        assert seen[-1] == n
        assert all(0 <= count <= n for count in seen)
