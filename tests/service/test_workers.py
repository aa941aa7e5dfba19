"""The in-process worker loop: claim, execute, release, drain.

Subprocess realities (real SIGKILL, lease expiry on the wall clock)
live in ``test_kill_anywhere.py``; here the loop's control flow is
pinned deterministically — unresolvable runners, graceful drain
mid-submission, bounded runs — plus the runner-resolution contract
and the supervisor's restart bookkeeping.
"""

import contextlib
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import ServiceError
from repro.experiments.sweep import runner_name
from repro.service import (
    Worker,
    WorkerSupervisor,
    resolve_runner,
)
from repro.service.workers import default_worker_id

from tests.service.conftest import (
    COUNTS,
    CURRENT_WORKER,
    LEASES,
    counting_runner,
    lease_probe_runner,
    stopping_runner,
    subprocess_pythonpath,
)
from tests.store.conftest import grid_spec


def submit(store, n=3, runner=counting_runner, name="sub"):
    return store.submit(
        name, grid_spec(n, experiment_id=f"grid-{name}"),
        runner_name(runner),
    )


class TestResolveRunner:
    def test_round_trips_runner_name(self):
        name = runner_name(counting_runner)
        assert resolve_runner(name) is counting_runner

    @pytest.mark.parametrize(
        "bad",
        [
            "no-colon",
            ":dangling",
            "dangling:",
            "definitely.not.a.module:fn",
            "repro.service.workers:no_such_attr",
            "repro.service.workers:Worker.no_such_attr",
        ],
    )
    def test_unresolvable_references_raise_service_error(self, bad):
        with pytest.raises(ServiceError):
            resolve_runner(bad)

    def test_non_callable_target_is_rejected(self):
        with pytest.raises(ServiceError, match="non-callable"):
            resolve_runner("repro.store.api:DEFAULT_LEASE_SECONDS")

    def test_dotted_qualname_resolves(self):
        assert (
            resolve_runner("repro.service.workers:Worker.run")
            is Worker.run
        )


class TestDefaultWorkerId:
    def test_ids_are_distinct_and_carry_the_pid(self):
        import os

        first, second = default_worker_id(), default_worker_id()
        assert first != second
        assert str(os.getpid()) in first


class TestWorkerLoop:
    def test_drains_all_submissions_then_exits(self, store_dir, store):
        submit(store, name="a")
        submit(store, name="b")
        with Worker(
            store_dir, poll_seconds=0.01, code_version="pinned"
        ) as worker:
            executed = worker.run(until_drained=True, timeout=30)
        assert executed == 2
        assert [row["state"] for row in store.status()] == [
            "done", "done",
        ]
        assert COUNTS == {0: 2, 1: 2, 2: 2}  # 3 points x 2 submissions

    def test_max_submissions_bounds_the_run(self, store_dir, store):
        submit(store, name="a")
        submit(store, name="b")
        with Worker(
            store_dir, poll_seconds=0.01, code_version="pinned"
        ) as worker:
            assert worker.run(max_submissions=1) == 1
        states = {row["name"]: row["state"] for row in store.status()}
        assert states == {"a": "done", "b": "pending"}

    def test_timeout_bounds_an_idle_worker(self, store_dir):
        with Worker(
            store_dir, poll_seconds=0.01, code_version="pinned"
        ) as worker:
            assert worker.run(timeout=0.2) == 0

    def test_unresolvable_runner_fails_the_submission(
        self, store_dir, store
    ):
        sid = store.submit(
            "bad", grid_spec(2), "definitely.not.a.module:fn"
        )
        with Worker(
            store_dir, poll_seconds=0.01, code_version="pinned"
        ) as worker:
            assert worker.run(until_drained=True, timeout=30) == 1
        record = store.submission(sid)
        assert record["state"] == "failed"
        assert "cannot import runner module" in record["error"]

    def test_heartbeats_hold_the_lease_past_its_length(
        self, store_dir, store
    ):
        # Four 0.4 s points outlast the 1 s lease; the heartbeat
        # keeps extending it, so it never lapses mid-run.
        sid = submit(store, n=4, runner=lease_probe_runner)
        with Worker(
            store_dir,
            lease_seconds=1.0,
            poll_seconds=0.01,
            code_version="pinned",
        ) as worker:
            CURRENT_WORKER.append(worker)
            assert worker.run(until_drained=True, timeout=30) == 1
        record = store.submission(sid)
        assert record["state"] == "done"
        assert record["attempts"] == 1
        assert len(LEASES) == 4
        assert all(expires_at > now for now, expires_at in LEASES)

    def test_stop_mid_submission_requeues_after_current_point(
        self, store_dir, store
    ):
        sid = submit(store, n=4, runner=stopping_runner)
        with Worker(
            store_dir, poll_seconds=0.01, code_version="pinned"
        ) as worker:
            CURRENT_WORKER.append(worker)
            executed = worker.run(until_drained=True, timeout=30)
        # The drain aborted the submission (not counted as executed),
        # after the in-flight point committed.
        assert executed == 0
        record = store.submission(sid)
        assert record["state"] == "pending"
        assert record["claimed_by"] is None
        assert COUNTS == {0: 1}

        # A second worker resumes the remainder: zero re-execution.
        CURRENT_WORKER.clear()
        with Worker(
            store_dir, poll_seconds=0.01, code_version="pinned"
        ) as worker:
            assert worker.run(until_drained=True, timeout=30) == 1
        assert store.submission(sid)["state"] == "done"
        assert COUNTS == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_stopped_worker_never_claims(self, store_dir, store):
        submit(store)
        with Worker(
            store_dir, poll_seconds=0.01, code_version="pinned"
        ) as worker:
            worker.stop()
            assert worker.run() == 0
        assert store.status()[0]["state"] == "pending"


def wake_fifos(store_dir):
    return sorted((store_dir / "wake").glob("*.fifo"))


def wait_until(predicate, timeout):
    """Seconds until ``predicate()`` held, or ``None`` past ``timeout``."""
    start = time.monotonic()
    while time.monotonic() - start < timeout:
        if predicate():
            return time.monotonic() - start
        time.sleep(0.005)
    return None


@contextlib.contextmanager
def idle_worker(store_dir, **run_kwargs):
    """A ``poll_seconds=30`` worker looping in a thread, yielded once it
    is past its first (empty) claim: only a ring wakes it in time."""
    worker = Worker(store_dir, poll_seconds=30, code_version="pinned")
    thread = threading.Thread(
        target=worker.run, kwargs=run_kwargs, daemon=True
    )
    with worker:
        thread.start()
        wait_until(lambda: wake_fifos(store_dir), 5.0)
        time.sleep(0.2)
        try:
            yield worker, thread
        finally:
            worker.stop()
            thread.join(timeout=35)


def leaves_pending(store, sid):
    return lambda: store.submission(sid)["state"] != "pending"


def finish_own_run(thread):
    """Let a ``max_submissions=1`` run end by itself: stopping the
    worker mid-submission would drain-requeue it to ``pending``."""
    thread.join(timeout=30)
    assert not thread.is_alive()


class TestDoorbell:
    """Idle workers block on a FIFO under ``<store>/wake/`` that every
    submit and drain requeue rings; ``poll_seconds`` is only the
    fallback, so each test pins it at 30 s and expects < 1 s."""

    def test_submit_wakes_an_idle_worker(self, store_dir, store):
        with idle_worker(store_dir, max_submissions=1) as (_, thread):
            sid = submit(store)
            assert wait_until(leaves_pending(store, sid), 1.0) is not None
            finish_own_run(thread)
        assert store.submission(sid)["state"] == "done"

    def test_stop_interrupts_an_idle_wait(self, store_dir, store):
        with idle_worker(store_dir) as (worker, thread):
            start = time.monotonic()
            worker.stop()
            thread.join(timeout=5)
            assert not thread.is_alive()
            assert time.monotonic() - start < 1.0

    def test_drain_requeue_wakes_an_idle_peer(self, store_dir, store):
        sid = submit(store)
        # A peer holds the lease, so the idle worker's claim finds
        # nothing; the peer's drain requeue must wake it.
        assert store.claim_next_submission("peer")["id"] == sid
        with idle_worker(store_dir, max_submissions=1) as (_, thread):
            assert store.submission(sid)["claimed_by"] == "peer"
            assert store.release_submission(sid, "peer", "pending")
            assert wait_until(leaves_pending(store, sid), 1.0) is not None
            finish_own_run(thread)
        assert store.submission(sid)["state"] == "done"

    def test_fifo_of_a_killed_worker_is_unlinked_by_the_next_ring(
        self, store_dir, store
    ):
        env = dict(os.environ, PYTHONPATH=subprocess_pythonpath())
        script = (
            "import sys\n"
            "from repro.service import Worker\n"
            "with Worker(sys.argv[1], poll_seconds=30,"
            " code_version='pinned') as worker:\n"
            "    worker.run()\n"
        )
        with subprocess.Popen(
            [sys.executable, "-c", script, str(store_dir)], env=env
        ) as proc:
            try:
                assert wait_until(lambda: wake_fifos(store_dir), 30.0)
            finally:
                proc.send_signal(signal.SIGKILL)
        (stale,) = wake_fifos(store_dir)
        sid = submit(store)
        assert store.submission(sid)["state"] == "pending"
        assert not stale.exists()
        assert wake_fifos(store_dir) == []

    @pytest.mark.parametrize("layout", ["missing", "file", "stray"])
    def test_submit_survives_an_odd_wake_directory(
        self, store_dir, store, layout
    ):
        wake = store_dir / "wake"
        if layout == "file":
            wake.write_text("not a directory")
        elif layout == "stray":
            wake.mkdir()
            (wake / "plain.fifo").write_text("keep")
            (wake / "nested.fifo").mkdir()
        sid = submit(store)
        assert store.submission(sid)["state"] == "pending"
        if layout == "missing":
            assert not wake.exists()  # rings never create it
        elif layout == "file":
            assert wake.read_text() == "not a directory"
        else:
            assert (wake / "plain.fifo").read_text() == "keep"
            assert (wake / "nested.fifo").is_dir()

    def test_worker_without_a_doorbell_falls_back_to_polling(
        self, store_dir, store
    ):
        (store_dir / "wake").write_text("not a directory")
        submit(store, name="a")
        with Worker(
            store_dir, poll_seconds=0.01, code_version="pinned"
        ) as worker:
            assert worker.run(until_drained=True, timeout=30) == 1
            assert worker._doorbell is None

    def test_close_unlinks_the_fifo(self, store_dir, store):
        with Worker(
            store_dir, poll_seconds=0.01, code_version="pinned"
        ) as worker:
            worker.run(timeout=0.05)
            assert len(wake_fifos(store_dir)) == 1
        assert wake_fifos(store_dir) == []
        worker.close()  # idempotent


class TestWorkerSupervisor:
    def test_rejects_negative_workers(self, tmp_path):
        with pytest.raises(ServiceError):
            WorkerSupervisor(tmp_path, workers=-1)

    def test_restart_limit_defaults_scale_with_pool(self, tmp_path):
        assert WorkerSupervisor(tmp_path, 3).restart_limit == 24
        assert WorkerSupervisor(
            tmp_path, 3, restart_limit=1
        ).restart_limit == 1

    def test_spawn_restart_and_drain(self, store_dir, store, tmp_path):
        # Forked workers pointed at a store with nothing to do; kill
        # them to simulate the crash.
        supervisor = WorkerSupervisor(
            store_dir, workers=2, poll_seconds=0.05, restart_limit=2,
        )
        supervisor.start()
        try:
            assert len(supervisor._procs) == 2
            supervisor._procs[0].kill()
            supervisor._procs[0].join()
            assert supervisor.poll() == 2  # replaced, still 2 alive
            assert supervisor.restarts == 1
            # Exhaust the restart budget: further deaths stay dead.
            supervisor._procs[0].kill()
            supervisor._procs[0].join()
            supervisor._procs[1].kill()
            supervisor._procs[1].join()
            supervisor.poll()
            supervisor._procs[0].kill()
            supervisor._procs[0].join()
            assert supervisor.restarts == 2
            assert supervisor.poll() <= 2
        finally:
            supervisor.drain(timeout=15)
        assert supervisor.alive_count() == 0

    def test_runner_bug_fails_its_submission_not_the_worker(
        self, store_dir, store
    ):
        # canonical_params takes one argument, so every point raises a
        # TypeError: not a ReproError, and no reason for the worker to
        # die with the submission.
        supervisor = WorkerSupervisor(
            store_dir, workers=1, poll_seconds=0.05,
        )
        supervisor.start()
        try:
            [worker] = supervisor._procs
            bad = store.submit(
                "bad", grid_spec(2, experiment_id="grid-bad"),
                "repro.experiments.sweep:canonical_params",
            )
            good = submit(store, name="good")
            # Nothing polls the supervisor here, so a worker that died
            # on the bad submission stays dead and never runs the good.
            assert wait_until(
                lambda: store.submission(good)["state"] == "done", 30
            ) is not None
            record = store.submission(bad)
            assert record["state"] == "failed"
            assert "TypeError" in record["error"]
            assert worker.is_alive()
        finally:
            supervisor.drain(timeout=15)
        assert worker.exitcode == 0

    def test_drain_is_idempotent_and_stops_restarts(
        self, store_dir, store
    ):
        supervisor = WorkerSupervisor(
            store_dir, workers=1, poll_seconds=0.05,
        )
        supervisor.start()
        supervisor.drain(timeout=15)
        assert supervisor.alive_count() == 0
        assert supervisor.poll() == 0  # draining: no replacement
        supervisor.drain(timeout=1)  # second drain is a no-op
        assert supervisor.restarts == 0
