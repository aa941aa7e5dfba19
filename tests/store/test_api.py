"""Submit/status/results API and the ``store`` CLI verbs."""

import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError, StoreError
from repro.experiments.resilience import FailurePolicy
from repro.experiments.sweep import runner_name
from repro.store import ResultStore
from repro.store.api import READ_STAMP_SECONDS

from tests.store.conftest import grid_spec, mixed_runner, scalar_runner


def run_submission(store, submission_id, runner):
    """Lease one submission and run it, as ``store run`` does."""
    record = store.claim_next_submission(
        "test-worker", submission_id=submission_id
    )
    assert record is not None and record["id"] == submission_id
    result, released = store.run_claimed_submission(
        submission_id, runner, "test-worker"
    )
    assert released
    return result


def odd_failing_runner(params, seed):
    """Fails at x == 1; every other point returns scalar metrics."""
    if params["x"] == 1:
        raise ValueError("odd point")
    return {"y": params["x"] * 2.0}


def big_int_runner(params, seed):
    """An int metric that outgrows int64 at odd points, plus a string."""
    x = params["x"]
    return {
        "y": x * 2.0,
        "big": 2**63 + x if x % 2 else x,
        "label": f"case-{x}",
    }


class TestSubmissions:
    def test_submit_records_pending(self, store):
        spec = grid_spec(4, "sub-grid")
        submission_id = store.submit(
            "nightly", spec, runner_name(scalar_runner)
        )
        record = store.submission(submission_id)
        assert record["state"] == "pending"
        assert record["name"] == "nightly"
        assert record["experiment_id"] == "sub-grid"
        rows = store.status()
        assert [row["id"] for row in rows] == [submission_id]

    def test_run_submission_executes_finalizes_and_reports(self, store):
        spec = grid_spec(5, "sub-run")
        submission_id = store.submit(
            "go", spec, runner_name(scalar_runner)
        )
        result = run_submission(store, submission_id, scalar_runner)
        assert result.ok_count == 5
        record = store.submission(submission_id)
        assert record["state"] == "done"
        assert record["ok_points"] == 5 and record["failed_points"] == 0
        # Finalized: the metric columns read straight off the shards.
        headers, rows = store.results_rows(submission_id, metrics=["y"])
        assert headers == ["index", "params", "y"]
        assert [row[2] for row in rows] == [x * 2.0 for x in range(5)]

    def test_results_default_to_every_returned_metric(self, store):
        spec = grid_spec(3, "sub-metrics")
        submission_id = store.submit(
            "m", spec, runner_name(mixed_runner)
        )
        run_submission(store, submission_id, mixed_runner)
        headers, rows = store.results_rows(submission_id)
        # Column-held and residual (string, nested) metrics, by name.
        assert headers == [
            "index", "params", "count", "label", "nested", "seed_mod", "y",
        ]
        assert [row[3:5] for row in rows] == [
            [f"case-{x}", {"inner": x, "tag": "t"}] for x in range(3)
        ]

    def test_results_reject_a_metric_no_point_returns(self, store):
        spec = grid_spec(3, "sub-unknown")
        submission_id = store.submit(
            "u", spec, runner_name(mixed_runner)
        )
        run_submission(store, submission_id, mixed_runner)
        with pytest.raises(ConfigurationError, match="'nosuch'"):
            store.results_rows(submission_id, metrics=["y", "nosuch"])
        # A residual-only metric is no error.
        headers, rows = store.results_rows(submission_id, metrics=["label"])
        assert [row[2] for row in rows] == ["case-0", "case-1", "case-2"]

    def test_column_held_metrics_read_no_residual(self, store):
        spec = grid_spec(3, "sub-columns")
        submission_id = store.submit(
            "c", spec, runner_name(mixed_runner)
        )
        run_submission(store, submission_id, mixed_runner)
        decodes = (store.stats["unpickle"], store.stats["json_decode"])
        queries = []
        store.db.connection().set_trace_callback(queries.append)
        try:
            store.results_rows(submission_id, metrics=["y", "count"])
        finally:
            store.db.connection().set_trace_callback(None)
        assert (store.stats["unpickle"], store.stats["json_decode"]) == decodes
        assert not any("FROM points" in query for query in queries)

    def test_results_read_residual_values_exactly(self, store):
        spec = grid_spec(4, "sub-residual")
        submission_id = store.submit(
            "r", spec, runner_name(big_int_runner)
        )
        run_submission(store, submission_id, big_int_runner)
        decodes = (store.stats["unpickle"], store.stats["json_decode"])
        # Column-resident metrics decode nothing.
        headers, rows = store.results_rows(submission_id, metrics=["y"])
        assert [row[2] for row in rows] == [0.0, 2.0, 4.0, 6.0]
        assert (store.stats["unpickle"], store.stats["json_decode"]) == decodes
        # Values the columns cannot hold come from the residual.
        headers, rows = store.results_rows(
            submission_id, metrics=["big", "label"]
        )
        assert [row[2:] for row in rows] == [
            [big_int_runner({"x": x}, 0)["big"], f"case-{x}"]
            for x in range(4)
        ]
        assert rows[1][2] == 2**63 + 1
        assert store.stats["unpickle"] == decodes[0]
        headers, rows = store.results_rows(submission_id)
        assert headers == ["index", "params", "big", "label", "y"]
        assert rows[3][2] == 2**63 + 3

    def test_results_touch_last_read_once_per_table(self, store):
        spec = grid_spec(3, "sub-touch")
        name = runner_name(scalar_runner)
        submission_id = store.submit("t", spec, name)
        run_submission(store, submission_id, scalar_runner)
        with store.db.transaction() as conn:
            conn.execute("UPDATE sweeps SET last_read_at = NULL")
        touches = store.stats["read_touch"]
        headers, _rows = store.results_rows(
            submission_id, metrics=["y", "n", "seed_mod"]
        )
        assert len(headers) == 5
        assert store.stats["read_touch"] == touches + 1
        (stamp,) = store.db.connection().execute(
            "SELECT last_read_at FROM sweeps"
        ).fetchone()
        assert stamp is not None  # gc still sees the read
        # A read right after the stamp writes nothing.
        store.read_column(spec, name, "y")
        store.read_column(spec, name, "n")
        assert store.stats["read_touch"] == touches + 1
        # Once the stamp is READ_STAMP_SECONDS old, one read restamps it.
        with store.db.transaction() as conn:
            conn.execute(
                "UPDATE sweeps SET last_read_at = last_read_at - ?",
                (READ_STAMP_SECONDS + 1,),
            )
        store.read_column(spec, name, "y")
        store.read_column(spec, name, "n")
        assert store.stats["read_touch"] == touches + 2
        (restamped,) = store.db.connection().execute(
            "SELECT last_read_at FROM sweeps"
        ).fetchone()
        assert restamped > stamp - READ_STAMP_SECONDS

    def test_wrong_runner_is_rejected(self, store):
        spec = grid_spec(3, "sub-wrong")
        submission_id = store.submit(
            "w", spec, runner_name(scalar_runner)
        )
        with pytest.raises(ConfigurationError, match="recorded for runner"):
            run_submission(store, submission_id, mixed_runner)

    def test_unknown_submission_raises(self, store):
        with pytest.raises(StoreError, match="no submission"):
            store.submission(999)
        with pytest.raises(StoreError):
            store.results_rows(999)

    def test_status_newest_first(self, store):
        spec = grid_spec(2, "sub-order")
        first = store.submit("one", spec, "r")
        second = store.submit("two", spec, "r")
        assert [row["id"] for row in store.status()] == [second, first]

    def test_submit_records_the_sweep_kind(self, store):
        submission_id = store.submit("k", grid_spec(2, "sub-kind"), "r")
        assert store.submission(submission_id)["kind"] == "scenario-sweep"
        assert [row["kind"] for row in store.status()] == ["scenario-sweep"]


class TestFinalize:
    def test_failed_run_is_released_failed_and_left_unfinalized(self, store):
        spec = grid_spec(4, "fin-failed")
        name = runner_name(odd_failing_runner)
        submission_id = store.submit("f", spec, name)
        store.claim_next_submission("test-worker", submission_id=submission_id)
        result, released = store.run_claimed_submission(
            submission_id,
            odd_failing_runner,
            "test-worker",
            policy=FailurePolicy(on_error="collect"),
        )
        assert released
        assert (result.ok_count, result.failure_count) == (3, 1)
        record = store.submission(submission_id)
        assert record["state"] == "failed"
        assert (record["ok_points"], record["failed_points"]) == (3, 1)
        assert "odd point" in record["error"]
        # The failed point was never stored, so the sweep stays in row
        # form and an explicit finalize is refused.
        with pytest.raises(StoreError, match="1 of 4 points"):
            store.finalize_sweep(spec, name)

    def test_sweep_never_run_cannot_be_finalized(self, store):
        spec = grid_spec(3, "fin-empty")
        with pytest.raises(StoreError, match="3 of 3 points"):
            store.finalize_sweep(spec, runner_name(scalar_runner))

    def test_finalize_is_idempotent(self, store):
        spec = grid_spec(5, "fin-twice")
        name = runner_name(scalar_runner)
        submission_id = store.submit("t", spec, name)
        run_submission(store, submission_id, scalar_runner)
        # The run already finalized; a second call writes nothing.
        assert store.finalize_sweep(spec, name, shard_points=2) == 0
        headers, rows = store.results_rows(submission_id, metrics=["y"])
        assert [row[2] for row in rows] == [x * 2.0 for x in range(5)]

    def test_shard_points_must_be_positive(self, store):
        with pytest.raises(ConfigurationError, match="shard_points"):
            store.finalize_sweep(
                grid_spec(2, "fin-bad"),
                runner_name(scalar_runner),
                shard_points=0,
            )


class TestSubmitCrash:
    def test_kill_before_submit_commit_leaves_no_row(self, tmp_path):
        from repro.experiments.resilience import CHAOS_EXIT_CODE

        from tests.store.conftest import run_driver

        script = (
            "import sys\n"
            "from pathlib import Path\n"
            "from repro.experiments.sweep import SweepSpec\n"
            "from repro.store import ResultStore\n"
            "store = ResultStore(Path(sys.argv[1]) / 'store')\n"
            "spec = SweepSpec('sub-kill', axes={'x': [1, 2]})\n"
            "store.submit('doomed', spec, 'r')\n"
        )
        killed = run_driver(
            script, tmp_path,
            env={"REPRO_STORE_FAULT": "submit-pre-commit"},
        )
        assert killed.returncode == CHAOS_EXIT_CODE, killed.stderr
        with ResultStore(tmp_path / "store") as store:
            assert store.status() == []
            assert store.verify()["ok"]
            # The store is fully usable: the same submission lands
            # cleanly on the next attempt.
            from repro.experiments.sweep import SweepSpec

            spec = SweepSpec("sub-kill", axes={"x": [1, 2]})
            assert store.submit("retry", spec, "r") == 1


class TestStoreCli:
    def test_init_status_gc_verify_round_trip(self, tmp_path, capsys):
        directory = str(tmp_path / "store")
        assert main(["store", "init", directory]) == 0
        assert "ready" in capsys.readouterr().out
        assert main(["store", "status", directory, "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == []
        assert main(["store", "verify", directory]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
        assert main(["store", "gc", directory, "--dry-run"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dry_run"] is True

    def test_submit_defer_then_run_then_results(self, tmp_path, capsys):
        directory = str(tmp_path / "store")
        code = main([
            "store", "submit", directory,
            "--preset", "baseline-32",
            "--axis", "workload.background_rho=0.5,0.85",
            "--horizon", "300",
            "--name", "cli-demo",
            "--defer",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "submission 1" in out and "2 points" in out

        assert main(["store", "status", directory, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["state"] == "pending"

        assert main(["store", "run", directory, "1"]) == 0
        assert "done (ok=2, failed=0)" in capsys.readouterr().out
        # A finished submission is reported, not run again.
        assert main(["store", "run", directory, "1"]) == 0
        assert "done (ok=2, failed=0)" in capsys.readouterr().out

        assert main([
            "store", "results", directory, "1",
            "--metrics", "utilisation_classical", "--json",
        ]) == 0
        table = json.loads(capsys.readouterr().out)
        assert table["headers"] == [
            "index", "params", "utilisation_classical"
        ]
        assert len(table["rows"]) == 2
        assert all(
            isinstance(row[2], float) for row in table["rows"]
        )

    def test_submit_runs_synchronously_by_default(self, tmp_path, capsys):
        directory = str(tmp_path / "store")
        assert main([
            "store", "submit", directory,
            "--preset", "baseline-32",
            "--axis", "workload.background_rho=0.7",
            "--horizon", "300",
        ]) == 0
        out = capsys.readouterr().out
        assert "done (ok=1, failed=0)" in out
        assert main(["store", "status", directory, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["state"] == "done"
        assert rows[0]["name"] == "baseline-32"

    def test_axis_values_parse_as_json_scalars(self, tmp_path, capsys):
        directory = str(tmp_path / "store")
        assert main([
            "store", "submit", directory,
            "--preset", "baseline-32",
            "--axis", "workload.background_rho=0.25",
            "--axis", "policy.policy=easy",
            "--horizon", "300",
            "--defer",
        ]) == 0
        capsys.readouterr()
        assert main(["store", "status", directory, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        spec = json.loads(
            ResultStore(tmp_path / "store").submission(
                rows[0]["id"]
            )["spec_json"]
        )
        assert spec["axes"]["workload.background_rho"] == [0.25]
        assert spec["axes"]["policy.policy"] == ["easy"]

    @pytest.mark.parametrize("horizon", ["-5", "nan", "inf"])
    def test_submit_rejects_a_bad_horizon_before_recording(
        self, tmp_path, capsys, horizon
    ):
        directory = tmp_path / "store"
        with pytest.raises(SystemExit) as exc:
            main([
                "store", "submit", str(directory),
                "--preset", "baseline-32", "--axis", "seed=1",
                "--horizon", horizon,
            ])
        assert exc.value.code == 2
        assert "run_horizon must be" in capsys.readouterr().err
        with ResultStore(directory) as store:
            assert store.status() == []

    @pytest.mark.parametrize("days", ["nan", "-1", "inf", "soon"])
    def test_gc_rejects_keep_days_that_is_not_finite_and_non_negative(
        self, tmp_path, capsys, days
    ):
        directory = str(tmp_path / "store")
        assert main(["store", "init", directory]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["store", "gc", directory, "--keep-days", days])
        assert exc.value.code == 2
        assert "--keep-days" in capsys.readouterr().err

    def test_results_default_lists_string_metrics_and_rejects_unknown(
        self, tmp_path, capsys
    ):
        directory = str(tmp_path / "store")
        assert main([
            "store", "submit", directory, "--preset", "baseline-32",
            "--axis", "seed=1,2", "--horizon", "300",
        ]) == 0
        capsys.readouterr()
        assert main(["store", "results", directory, "1", "--json"]) == 0
        table = json.loads(capsys.readouterr().out)
        assert "fleet_policy" in table["headers"]
        assert table["headers"][2:] == sorted(table["headers"][2:])
        column = table["headers"].index("fleet_policy")
        assert all(isinstance(row[column], str) for row in table["rows"])
        assert main([
            "store", "results", directory, "1", "--metrics", "nosuch",
        ]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_axis_and_missing_axis_error_cleanly(self, tmp_path):
        directory = str(tmp_path / "store")
        with pytest.raises(SystemExit):
            main([
                "store", "submit", directory,
                "--preset", "baseline-32", "--axis", "garbage",
            ])
        with pytest.raises(SystemExit):
            main(["store", "submit", directory, "--preset", "baseline-32"])

    def test_sweep_cache_dir_is_a_store(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main([
            "sweep", "E7", "--cache-dir", str(cache_dir), "--workers", "1",
        ]) == 0
        capsys.readouterr()
        assert (cache_dir / "store.sqlite3").exists()
        # Points landed in the store, nothing else in the directory.
        assert {path.name for path in cache_dir.iterdir()} <= {
            "store.sqlite3", "store.sqlite3-wal", "store.sqlite3-shm",
            "store.sqlite3.lock",
        }


RUN_DRIVER = """
import sys
from repro.cli import main
sys.exit(main(["store", "run", sys.argv[1] + "/store", "1"]))
"""


class TestStoreRunLease:
    """``store run`` executes under the lease protocol, like a worker."""

    @pytest.fixture
    def deferred(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_CODE_VERSION", "pinned")
        directory = tmp_path / "store"
        assert main([
            "store", "submit", str(directory),
            "--preset", "baseline-32",
            "--axis", "seed=1,2,3",
            "--horizon", "600",
            "--defer",
        ]) == 0
        capsys.readouterr()
        return directory

    def test_killed_store_run_is_reclaimed_by_a_worker(
        self, deferred, tmp_path, monkeypatch
    ):
        import functools
        import time

        import repro.scenarios.sweeps as sweeps
        from repro.experiments.resilience import CHAOS_EXIT_CODE
        from repro.service.workers import Worker

        from tests.store.conftest import run_driver

        killed = run_driver(
            RUN_DRIVER, tmp_path,
            env={"REPRO_STORE_FAULT": "point-post-commit:2"},
        )
        assert killed.returncode == CHAOS_EXIT_CODE, killed.stderr
        later = time.time() + 1e6
        with ResultStore(deferred, shared_writer=True) as store:
            stranded = store.submission(1)
            summary = store.queue_summary(now=later)
        # The dead run left a lease behind, not an orphan.
        assert stranded["state"] == "running"
        assert stranded["claimed_by"] is not None
        assert summary["stale_leases"] == 1

        calls = []
        original = sweeps.run_scenario_point

        @functools.wraps(original)
        def counting(params, seed):
            calls.append(seed)
            return original(params, seed)

        # The worker resolves the recorded runner by name: this copy.
        monkeypatch.setattr(sweeps, "run_scenario_point", counting)
        with Worker(deferred) as worker:
            record = worker.store.claim_next_submission(
                worker.worker_id, now=later, submission_id=1
            )
            assert record is not None
            assert worker.execute(record)
            final = worker.store.submission(1)
        assert final["state"] == "done"
        assert (final["ok_points"], final["failed_points"]) == (3, 0)
        assert final["claimed_by"] is None
        # Two points committed before the kill; only the third ran.
        assert len(calls) == 1

    def test_store_run_under_a_live_lease_names_the_holder(
        self, deferred, capsys
    ):
        with ResultStore(deferred, shared_writer=True) as store:
            store.claim_next_submission("busy-worker", submission_id=1)
        assert main(["store", "run", str(deferred), "1"]) == 1
        captured = capsys.readouterr()
        assert "busy-worker" in captured.err
        with ResultStore(deferred, shared_writer=True) as store:
            record = store.submission(1)
        assert (record["state"], record["claimed_by"]) == (
            "running", "busy-worker"
        )
