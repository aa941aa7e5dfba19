"""The lease protocol, unit by unit, on a simulated clock.

Every method takes ``now=`` so these tests never sleep: claims,
heartbeats, releases, expiry takeovers and the poison cap are all
driven with explicit timestamps.  The subprocess realities (real
crashes, real clocks) live in ``test_kill_anywhere.py``.
"""

import pytest

from repro.errors import (
    ConfigurationError,
    LeaseError,
    StoreLockedError,
    UnknownSubmissionError,
    WorkerDrainError,
)
from repro.experiments.sweep import SweepSpec, runner_name
from repro.store import ResultStore
from repro.store.api import DEFAULT_MAX_CLAIMS

from tests.service.conftest import COUNTS, counting_runner
from tests.store.conftest import grid_spec


def submit(store, n=3, name="sub"):
    return store.submit(
        name, grid_spec(n, experiment_id=f"grid-{name}"),
        runner_name(counting_runner),
    )


class TestClaim:
    def test_claim_marks_running_with_lease(self, store):
        sid = submit(store)
        record = store.claim_next_submission(
            "w1", lease_seconds=30.0, now=100.0
        )
        assert record["id"] == sid
        assert record["state"] == "running"
        assert record["claimed_by"] == "w1"
        assert record["lease_expires_at"] == 130.0
        assert record["attempts"] == 1
        assert record["code_version"] == "pinned"

    def test_claim_oldest_first(self, store):
        first = submit(store, name="a")
        second = submit(store, name="b")
        assert store.claim_next_submission("w1", now=0.0)["id"] == first
        assert store.claim_next_submission("w2", now=0.0)["id"] == second

    def test_empty_queue_claims_none(self, store):
        assert store.claim_next_submission("w1", now=0.0) is None

    def test_unexpired_lease_is_not_claimable(self, store):
        submit(store)
        store.claim_next_submission("w1", lease_seconds=30.0, now=100.0)
        assert (
            store.claim_next_submission("w2", now=129.9) is None
        )

    def test_expired_lease_takeover_increments_attempts(self, store):
        sid = submit(store)
        store.claim_next_submission("w1", lease_seconds=30.0, now=100.0)
        record = store.claim_next_submission(
            "w2", lease_seconds=30.0, now=130.1
        )
        assert record["id"] == sid
        assert record["claimed_by"] == "w2"
        assert record["attempts"] == 2

    def test_terminal_submissions_are_never_claimable(self, store):
        sid = submit(store)
        store.claim_next_submission("w1", now=0.0)
        assert store.release_submission(sid, "w1", "done", now=1.0)
        assert store.claim_next_submission("w2", now=1000.0) is None

    def test_claim_can_name_one_submission(self, store):
        first = submit(store, name="a")
        second = submit(store, name="b")
        record = store.claim_next_submission(
            "w1", now=0.0, submission_id=second
        )
        assert record["id"] == second
        assert store.submission(first)["state"] == "pending"
        # Held under a live lease, or unknown: nothing to claim.
        assert store.claim_next_submission(
            "w2", now=1.0, submission_id=second
        ) is None
        assert store.claim_next_submission(
            "w2", now=1.0, submission_id=999
        ) is None
        assert store.claim_next_submission("w2", now=1.0)["id"] == first

    def test_running_row_without_a_lease_is_claimable(self, store):
        # Stores written before `store run` took leases can hold a
        # `running` row with no holder and no lease.
        sid = submit(store)
        with store.db.transaction() as conn:
            conn.execute(
                "UPDATE submissions SET state = 'running' WHERE id = ?",
                (sid,),
            )
        assert store.queue_summary(now=0.0)["stale_leases"] == 1
        record = store.claim_next_submission(
            "w1", lease_seconds=30.0, now=100.0, submission_id=sid
        )
        assert record["claimed_by"] == "w1"
        assert record["lease_expires_at"] == 130.0
        assert store.queue_summary(now=101.0)["stale_leases"] == 0

    def test_claim_rejects_nonpositive_lease(self, store):
        submit(store)
        with pytest.raises(ConfigurationError):
            store.claim_next_submission("w1", lease_seconds=0.0)


class TestHeartbeatAndRelease:
    def test_heartbeat_extends_the_lease(self, store):
        sid = submit(store)
        store.claim_next_submission("w1", lease_seconds=30.0, now=100.0)
        assert store.heartbeat_submission(
            sid, "w1", lease_seconds=30.0, now=120.0
        )
        assert store.submission(sid)["lease_expires_at"] == 150.0

    def test_heartbeat_after_takeover_is_fenced_off(self, store):
        sid = submit(store)
        store.claim_next_submission("w1", lease_seconds=30.0, now=100.0)
        store.claim_next_submission("w2", lease_seconds=30.0, now=131.0)
        assert not store.heartbeat_submission(sid, "w1", now=132.0)
        # ... and w1 did not resurrect or extend anything.
        assert store.submission(sid)["claimed_by"] == "w2"
        assert store.submission(sid)["lease_expires_at"] == 161.0

    def test_release_requeues_as_pending(self, store):
        sid = submit(store)
        store.claim_next_submission("w1", now=0.0)
        assert store.release_submission(sid, "w1", "pending", now=1.0)
        record = store.submission(sid)
        assert record["state"] == "pending"
        assert record["claimed_by"] is None
        assert record["lease_expires_at"] is None
        # Requeued means claimable again, attempts preserved.
        assert store.claim_next_submission("w2", now=2.0)["attempts"] == 2

    def test_terminal_release_happens_exactly_once(self, store):
        sid = submit(store)
        store.claim_next_submission("w1", lease_seconds=30.0, now=100.0)
        store.claim_next_submission("w2", lease_seconds=30.0, now=131.0)
        # The stale holder cannot complete the submission...
        assert not store.release_submission(
            sid, "w1", "done", now=132.0, ok_points=3, failed_points=0
        )
        assert store.submission(sid)["state"] == "running"
        # ... the live one can, exactly once.
        assert store.release_submission(
            sid, "w2", "done", now=133.0, ok_points=3, failed_points=0
        )
        assert not store.release_submission(sid, "w2", "done", now=134.0)
        record = store.submission(sid)
        assert record["state"] == "done"
        assert record["ok_points"] == 3

    def test_release_rejects_non_release_states(self, store):
        sid = submit(store)
        store.claim_next_submission("w1", now=0.0)
        with pytest.raises(ConfigurationError):
            store.release_submission(sid, "w1", "running")


class TestPoisonCap:
    def test_submission_fails_after_max_claims(self, store):
        sid = submit(store)
        now = 0.0
        for attempt in range(1, 4):
            record = store.claim_next_submission(
                f"w{attempt}", lease_seconds=1.0, now=now, max_claims=3
            )
            assert record["attempts"] == attempt
            now += 10.0  # the lease expires, the worker never released
        assert (
            store.claim_next_submission("w9", now=now, max_claims=3)
            is None
        )
        record = store.submission(sid)
        assert record["state"] == "failed"
        assert "abandoned after 3 failed claims" in record["error"]

    def test_poisoned_submission_does_not_block_the_queue(self, store):
        poisoned = submit(store, name="poison")
        healthy = submit(store, name="healthy")
        now = 0.0
        for attempt in range(3):
            store.claim_next_submission(
                "w1", lease_seconds=1.0, now=now, max_claims=3
            )
            now += 10.0
        record = store.claim_next_submission("w2", now=now, max_claims=3)
        assert record["id"] == healthy
        assert store.submission(poisoned)["state"] == "failed"

    def test_default_cap_is_generous_but_finite(self, store):
        submit(store)
        now = 0.0
        for _ in range(DEFAULT_MAX_CLAIMS):
            assert (
                store.claim_next_submission(
                    "w", lease_seconds=1.0, now=now
                )
                is not None
            )
            now += 10.0
        assert store.claim_next_submission("w", now=now) is None

    def test_max_claims_none_retries_forever(self, store):
        submit(store)
        now = 0.0
        for _ in range(DEFAULT_MAX_CLAIMS + 3):
            assert (
                store.claim_next_submission(
                    "w", lease_seconds=1.0, now=now, max_claims=None
                )
                is not None
            )
            now += 10.0


class TestQueueSummary:
    def test_counts_states_and_stale_leases(self, store):
        a = submit(store, name="a")
        submit(store, name="b")
        c = submit(store, name="c")
        d = submit(store, name="d")
        store.claim_next_submission("w1", lease_seconds=30.0, now=100.0)
        assert store.release_submission(a, "w1", "done", now=101.0)
        store.claim_next_submission("w1", lease_seconds=30.0, now=102.0)
        store.claim_next_submission("w2", lease_seconds=300.0, now=103.0)
        summary = store.queue_summary(now=200.0)
        assert summary["pending"] == 1
        assert summary["running"] == 2
        assert summary["done"] == 1
        assert summary["failed"] == 0
        assert summary["stale_leases"] == 1  # w1's 30 s lease, at t=200
        assert summary["depth"] == 3
        assert c and d  # ids used: b pending, c+d running

    def test_empty_store_summary_is_all_zero(self, store):
        summary = store.queue_summary()
        assert summary == {
            "pending": 0, "running": 0, "done": 0, "failed": 0,
            "stale_leases": 0, "depth": 0,
        }


class TestRunClaimedSubmission:
    def test_requires_a_held_lease(self, store):
        sid = submit(store)
        with pytest.raises(LeaseError):
            store.run_claimed_submission(sid, counting_runner, "w1")

    def test_rejects_a_stale_holder(self, store):
        sid = submit(store)
        store.claim_next_submission("w1", lease_seconds=30.0, now=100.0)
        store.claim_next_submission("w2", lease_seconds=30.0, now=131.0)
        with pytest.raises(LeaseError):
            store.run_claimed_submission(sid, counting_runner, "w1")

    def test_rejects_a_mismatched_runner(self, store):
        spec = grid_spec(2, experiment_id="mismatch")
        sid = store.submit("sub", spec, "some.other:runner")
        store.claim_next_submission("w1", now=0.0)
        with pytest.raises(ConfigurationError):
            store.run_claimed_submission(sid, counting_runner, "w1")

    def test_executes_finalizes_and_releases_done(self, store):
        sid = submit(store, n=4)
        store.claim_next_submission("w1")
        result, released = store.run_claimed_submission(
            sid, counting_runner, "w1", shard_points=2
        )
        assert released
        assert result.ok_count == 4
        record = store.submission(sid)
        assert record["state"] == "done"
        assert record["ok_points"] == 4
        assert record["claimed_by"] is None
        headers, rows = store.results_rows(sid, metrics=["y"])
        assert [row[2] for row in rows] == [0.0, 2.0, 4.0, 6.0]

    def test_drain_requeues_and_resume_skips_committed(self, store):
        sid = submit(store, n=4)
        store.claim_next_submission("w1")

        def drain_after_two(point, outcome):
            if point.index == 1:
                raise WorkerDrainError("drain requested")

        with pytest.raises(WorkerDrainError):
            store.run_claimed_submission(
                sid, counting_runner, "w1", on_outcome=drain_after_two
            )
        record = store.submission(sid)
        assert record["state"] == "pending"
        assert record["claimed_by"] is None
        assert COUNTS == {0: 1, 1: 1}  # the current point committed

        store.claim_next_submission("w2")
        result, released = store.run_claimed_submission(
            sid, counting_runner, "w2"
        )
        assert released
        # Zero re-execution of the two committed points.
        assert COUNTS == {0: 1, 1: 1, 2: 1, 3: 1}
        assert store.submission(sid)["state"] == "done"

    def test_runner_failure_releases_failed_with_error(self, store):
        spec = grid_spec(2, experiment_id="boom")
        sid = store.submit(
            "sub", spec, runner_name(_exploding_runner)
        )
        store.claim_next_submission("w1")
        with pytest.raises(Exception, match="boom at x=0"):
            store.run_claimed_submission(sid, _exploding_runner, "w1")
        record = store.submission(sid)
        assert record["state"] == "failed"
        assert "boom at x=0" in record["error"]
        assert record["claimed_by"] is None


def _exploding_runner(params, seed):
    raise RuntimeError(f"boom at x={params['x']}")


class TestSharedWriterLock:
    def test_shared_holders_coexist(self, store_dir):
        with ResultStore(store_dir, shared_writer=True) as a:
            a.acquire()
            with ResultStore(store_dir, shared_writer=True) as b:
                b.acquire()  # no StoreLockedError: leases arbitrate

    def test_shared_and_exclusive_exclude_each_other(self, store_dir):
        with ResultStore(store_dir, shared_writer=True) as shared:
            shared.acquire()
            exclusive = ResultStore(store_dir)
            with pytest.raises(StoreLockedError):
                exclusive.acquire()
            exclusive.close()
        with ResultStore(store_dir) as exclusive:
            exclusive.acquire()
            shared = ResultStore(store_dir, shared_writer=True)
            with pytest.raises(StoreLockedError):
                shared.acquire()
            shared.close()


class TestUnknownSubmission:
    def test_submission_raises_typed_error(self, store):
        with pytest.raises(UnknownSubmissionError):
            store.submission(999)
