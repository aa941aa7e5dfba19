"""SIGKILL a worker at every fault site; a second worker finishes.

The service-level durability contract, pinned site by site: a worker
hard-killed (``os._exit`` via ``REPRO_STORE_FAULT``, the in-process
stand-in for SIGKILL) at *any* store commit boundary or lease-protocol
boundary never loses the submission — after its lease expires a second
worker claims the remainder, re-executes **zero** points whose values
had committed before the kill, and finishes with a results table
byte-identical to the same submission run serially down the
``store run`` path in a clean store.

Layout per scenario (all in fresh interpreters via ``run_driver``):

1. seed driver — record one deferred 6-point submission;
2. worker A — lease 1 s, fault env set, dies with CHAOS_EXIT_CODE;
3. worker B — different identity, no fault env, ``until_drained``
   (waits out A's orphaned lease where one survives the kill);
4. report driver — final state, verify report, results digest.
"""

import pytest

from repro.experiments.resilience import CHAOS_EXIT_CODE

from tests.service.conftest import (
    REPORT_DRIVER,
    SEED_DRIVER,
    SERIAL_DRIVER,
    WORKER_DRIVER,
    marker_counts,
    read_json,
    run_driver,
    stored_xs,
    write_runner_module,
)

#: Sweep-path sites (hit counts land the crash mid-grid: 6 points,
#: shard_points=2 -> 3 shards) plus every lease-protocol site.  The
#: heartbeat sites need the sweep still running when a heartbeat
#: fires, so those scenarios slow each point down past the heartbeat
#: interval (lease 1 s / 4 = 0.25 s).
SITES = [
    ("point-pre-commit", 3, 0.0),
    ("point-post-commit", 3, 0.0),
    ("outcome-pre-commit", 3, 0.0),
    ("outcome-post-commit", 3, 0.0),
    ("shard-mid-write", 2, 0.0),
    ("shard-tmp-written", 2, 0.0),
    ("shard-renamed", 2, 0.0),
    ("finalize-pre-commit", 1, 0.0),
    ("finalize-post-commit", 1, 0.0),
    ("lease-claim-pre-commit", 1, 0.0),
    ("lease-claim-post-commit", 1, 0.0),
    ("lease-heartbeat-pre-commit", 1, 0.12),
    ("lease-heartbeat-post-commit", 1, 0.12),
    ("lease-release-pre-commit", 1, 0.0),
    ("lease-release-post-commit", 1, 0.0),
]

#: Worker A's lease: short enough that worker B's takeover keeps the
#: suite fast, long enough that a live worker never loses it.
LEASE_A = 1.0


@pytest.fixture(scope="session")
def serial_digest(tmp_path_factory):
    """The byte-identity baseline, computed once: the runner is
    deterministic in (params, seed), so every scenario's grid must
    reproduce this exact results table."""
    workdir = tmp_path_factory.mktemp("serial-baseline")
    write_runner_module(workdir)
    done = run_driver(SERIAL_DRIVER, workdir)
    assert done.returncode == 0, done.stderr
    return read_json(workdir, "serial.json")["digest"]


class TestKillAnyWorkerAnywhere:
    @pytest.mark.parametrize(
        "site,hit,delay", SITES, ids=[s for s, _, _ in SITES]
    )
    def test_second_worker_completes_without_reexecution(
        self, tmp_path, serial_digest, site, hit, delay
    ):
        write_runner_module(tmp_path)
        seeded = run_driver(SEED_DRIVER, tmp_path)
        assert seeded.returncode == 0, seeded.stderr

        env = {"REPRO_STORE_FAULT": f"{site}:{hit}"}
        if delay:
            env["SVC_POINT_DELAY"] = str(delay)
        killed = run_driver(
            WORKER_DRIVER, tmp_path, "worker-a", LEASE_A, 30, env=env
        )
        assert killed.returncode == CHAOS_EXIT_CODE, (
            killed.stdout + killed.stderr
        )
        assert not (tmp_path / "worker-worker-a.json").exists()

        runs_before = marker_counts(tmp_path)
        stored = stored_xs(tmp_path)
        # Whatever committed was executed at least once before dying.
        for x in stored:
            assert runs_before.get(x, 0) >= 1

        # Worker B: fresh identity, no faults; until_drained waits out
        # worker A's orphaned lease where the kill left one behind.
        second = run_driver(
            WORKER_DRIVER, tmp_path, "worker-b", 10.0, 60
        )
        assert second.returncode == 0, second.stdout + second.stderr

        report_run = run_driver(REPORT_DRIVER, tmp_path, "final")
        assert report_run.returncode == 0, report_run.stderr
        report = read_json(tmp_path, "report-final.json")

        # The submission reached `done` exactly once, lease cleared.
        assert report["state"] == "done", report
        assert report["ok_points"] == 6
        assert report["failed_points"] == 0
        assert report["claimed_by"] is None
        assert report["verify"]["ok"], report["verify"]

        # THE contract: not one point whose value had committed before
        # the kill ran again under worker B.
        runs_after = marker_counts(tmp_path)
        for x in stored:
            assert runs_after[x] == runs_before[x], (
                f"committed point x={x} re-executed after {site}"
            )
        assert all(runs_after.get(x, 0) >= 1 for x in range(6))

        # Byte-identity with the serial `store run` baseline.
        assert report["digest"] == serial_digest

    def test_no_fault_env_single_worker_completes(
        self, tmp_path, serial_digest
    ):
        write_runner_module(tmp_path)
        seeded = run_driver(SEED_DRIVER, tmp_path)
        assert seeded.returncode == 0, seeded.stderr
        done = run_driver(WORKER_DRIVER, tmp_path, "solo", 30.0, 60)
        assert done.returncode == 0, done.stdout + done.stderr
        assert read_json(tmp_path, "worker-solo.json")["executed"] == 1
        assert marker_counts(tmp_path) == {x: 1 for x in range(6)}
        report_run = run_driver(REPORT_DRIVER, tmp_path, "solo")
        assert report_run.returncode == 0, report_run.stderr
        report = read_json(tmp_path, "report-solo.json")
        assert report["state"] == "done"
        assert report["attempts"] == 1
        assert report["digest"] == serial_digest

    def test_release_post_commit_kill_leaves_nothing_for_worker_b(
        self, tmp_path
    ):
        """Killed *after* the terminal release committed: the queue is
        already drained — worker B must execute nothing and must not
        disturb the finished submission."""
        write_runner_module(tmp_path)
        run_driver(SEED_DRIVER, tmp_path)
        killed = run_driver(
            WORKER_DRIVER, tmp_path, "worker-a", LEASE_A, 30,
            env={"REPRO_STORE_FAULT": "lease-release-post-commit:1"},
        )
        assert killed.returncode == CHAOS_EXIT_CODE
        second = run_driver(WORKER_DRIVER, tmp_path, "worker-b", 10.0, 60)
        assert second.returncode == 0, second.stderr
        assert (
            read_json(tmp_path, "worker-worker-b.json")["executed"] == 0
        )
        assert marker_counts(tmp_path) == {x: 1 for x in range(6)}
