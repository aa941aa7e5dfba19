"""The doorbell primitive under ``<store>/wake/``: a worker's FIFO is
woken by :func:`~repro.store.wake.ring` and by its own ``ring``, never
spins on end-of-file, and is rung by exactly the store writes that make
a submission claimable."""

import os
import time

import pytest

from repro.store.wake import WAKE_DIRNAME, Doorbell, ring

from tests.store.conftest import grid_spec


@pytest.fixture
def bell(tmp_path):
    doorbell = Doorbell(tmp_path)
    yield doorbell
    doorbell.close()


class TestDoorbell:
    def test_fifo_is_published_under_wake(self, tmp_path, bell):
        assert bell.path.parent == tmp_path / WAKE_DIRNAME
        assert bell.path.name.endswith(".fifo")
        # Only the published FIFO: the staging name was renamed away.
        assert os.listdir(tmp_path / WAKE_DIRNAME) == [bell.path.name]

    def test_unrung_wait_times_out(self, bell):
        start = time.monotonic()
        assert bell.wait(0.1) is False
        assert time.monotonic() - start >= 0.09

    def test_ring_wakes_and_is_consumed(self, tmp_path, bell):
        ring(tmp_path)
        ring(tmp_path)
        assert bell.wait(5) is True
        # Both rings were drained, and the ringer having closed its end
        # is no end-of-file: the next wait blocks out its timeout.
        start = time.monotonic()
        assert bell.wait(0.1) is False
        assert time.monotonic() - start >= 0.09

    def test_own_ring_wakes_the_wait(self, bell):
        bell.ring()
        assert bell.wait(5) is True

    def test_full_pipe_is_not_an_error(self, tmp_path, bell):
        with pytest.raises(BlockingIOError):
            while True:
                os.write(bell._write, b"\0" * 65536)
        ring(tmp_path)  # EAGAIN: already signalled
        bell.ring()
        assert bell.wait(0) is True

    def test_close_unlinks_and_is_idempotent(self, tmp_path, bell):
        path = bell.path
        bell.close()
        assert not path.exists()
        bell.close()
        bell.ring()  # a late stop() after close is a no-op

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_close_releases_both_fds(self, tmp_path):
        before = set(os.listdir("/proc/self/fd"))
        doorbell = Doorbell(tmp_path)
        assert len(set(os.listdir("/proc/self/fd")) - before) == 2
        doorbell.close()
        assert set(os.listdir("/proc/self/fd")) <= before

    def test_fifo_without_a_reader_is_unlinked(self, tmp_path):
        wake = tmp_path / WAKE_DIRNAME
        wake.mkdir()
        os.mkfifo(wake / "dead.fifo")
        ring(tmp_path)
        assert not (wake / "dead.fifo").exists()


class TestStoreRings:
    def test_submit_rings(self, store, bell_in_store):
        store.submit("s", grid_spec(2), "m:f")
        assert bell_in_store.wait(0) is True

    def test_requeue_rings_terminal_release_does_not(
        self, store, bell_in_store
    ):
        first = store.submit("a", grid_spec(2, experiment_id="a"), "m:f")
        second = store.submit("b", grid_spec(2, experiment_id="b"), "m:f")
        bell_in_store.wait(0)
        assert store.claim_next_submission("w")["id"] == first
        assert store.release_submission(first, "w", "done")
        assert bell_in_store.wait(0) is False
        assert store.claim_next_submission("w")["id"] == second
        assert store.release_submission(second, "w", "pending")
        assert bell_in_store.wait(0) is True
        # A fenced-off release changes nothing, so rings nobody.
        assert not store.release_submission(second, "w", "pending")
        assert bell_in_store.wait(0) is False


@pytest.fixture
def bell_in_store(store, store_dir):
    store.open()
    doorbell = Doorbell(store_dir)
    yield doorbell
    doorbell.close()
