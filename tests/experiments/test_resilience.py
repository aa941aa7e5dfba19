"""Fault-tolerance suite: retries, timeouts, crashes, journal, chaos.

The engine's resilience contract, exercised end to end with the
deterministic chaos harness:

- every point that *completes* is byte-identical to a serial,
  chaos-free run — retries, worker deaths and timeouts never perturb
  per-point seed derivation;
- every point that *fails* ends in a structured ``Outcome`` with
  the real error and traceback, and under ``on_error="collect"`` the
  rest of the campaign still completes;
- the run journal survives a SIGKILL mid-campaign and a resumed run
  re-executes zero already-journaled points.
"""

import json
import os
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import multiprocessing

import pytest

from repro.errors import (
    ChaosError,
    ConfigurationError,
    PointFailedError,
    StoreLockedError,
)
from repro.experiments.resilience import (
    CHAOS_EXIT_CODE,
    ChaosSpec,
    FailurePolicy,
    Outcome,
    failure_rows,
)
from repro.experiments.sweep import (
    SweepSpec,
    canonical_bytes,
    run_sweep,
    runner_name,
)
from repro.store import FAULT_ENV, ResultStore

#: Env var the chaos-free reference runner uses to drop exec markers.
MARKER_DIR_VAR = "REPRO_TEST_MARKER_DIR"


def _mark_execution(params, seed):
    """Touch a unique marker file per execution (visible across procs)."""
    directory = os.environ.get(MARKER_DIR_VAR)
    if directory:
        name = f"exec-{params['i']}-{os.getpid()}-{time.monotonic_ns()}"
        Path(directory, name).touch()


def _arith(params, seed):
    """Pure-math runner: fast, picklable, value depends on params+seed."""
    i = params["i"]
    return {"i": i, "value": i * 10 + (seed % 7), "seed": seed}


def _arith_marked(params, seed):
    _mark_execution(params, seed)
    return _arith(params, seed)


def _fail_multiples_of_five(params, seed):
    """Permanently fails 20% of a 30-point i-grid (i % 5 == 4)."""
    _mark_execution(params, seed)
    if params["i"] % 5 == 4:
        raise ValueError(f"point {params['i']} is permanently bad")
    return _arith(params, seed)


def _slow_arith(params, seed):
    time.sleep(0.2)
    return _arith(params, seed)


def _spec(n, experiment_id="test-resilience", seed=0):
    return SweepSpec(experiment_id, axes={"i": list(range(n))}, base_seed=seed)


def _reference_values(n, seed=0):
    """Serial, chaos-free ground truth for the ``_arith`` family."""
    return run_sweep(_spec(n, seed=seed), _arith, workers=1).values


def _subprocess_env():
    """This environment with the in-tree ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    env.pop(FAULT_ENV, None)
    return env


def _no_orphans(timeout=5.0):
    """True once no worker children of this process remain alive."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not multiprocessing.active_children():
            return True
        time.sleep(0.05)
    return not multiprocessing.active_children()


class TestFailurePolicy:
    def test_defaults_reproduce_historical_behaviour(self):
        policy = FailurePolicy()
        assert policy.max_attempts == 1
        assert policy.timeout_seconds is None
        assert not policy.collects

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"timeout_seconds": 0.0},
            {"timeout_seconds": -1.0},
            {"on_error": "explode"},
            {"backoff_seconds": -1.0},
            {"backoff_multiplier": 0.5},
            {"max_crashes": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            FailurePolicy(**kwargs)

    def test_backoff_doubles_and_saturates(self):
        policy = FailurePolicy(
            max_attempts=6, backoff_seconds=1.0, max_backoff_seconds=3.0
        )
        assert [policy.backoff_for(n) for n in range(5)] == [
            0.0,
            1.0,
            2.0,
            3.0,
            3.0,
        ]

    def test_zero_backoff_is_free(self):
        assert FailurePolicy(max_attempts=3).backoff_for(2) == 0.0

    def test_keyed_jitter_is_deterministic_and_bounded(self):
        policy = FailurePolicy(
            max_attempts=4,
            backoff_seconds=1.0,
            max_backoff_seconds=8.0,
            backoff_jitter=0.25,
        )
        for failures in (1, 2, 3):
            base = policy.backoff_for(failures)
            jittered = policy.backoff_for(failures, key="point-a")
            # Same (key, failures) -> same delay, every time.
            assert jittered == policy.backoff_for(failures, key="point-a")
            # Jitter only ever shortens, within [1 - jitter, 1] * base.
            assert base * 0.75 <= jittered <= base

    def test_jitter_spreads_distinct_keys(self):
        policy = FailurePolicy(
            max_attempts=3, backoff_seconds=2.0, backoff_jitter=0.5
        )
        delays = {
            policy.backoff_for(1, key=f"point-{i}") for i in range(16)
        }
        assert len(delays) > 1  # the herd does not retry in lockstep

    def test_no_key_or_zero_jitter_reproduces_plain_backoff(self):
        jittered = FailurePolicy(
            max_attempts=3, backoff_seconds=1.0, backoff_jitter=0.25
        )
        flat = FailurePolicy(
            max_attempts=3, backoff_seconds=1.0, backoff_jitter=0.0
        )
        assert jittered.backoff_for(2, key=None) == 2.0
        assert flat.backoff_for(2, key="point-a") == 2.0

    def test_jitter_outside_unit_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            FailurePolicy(backoff_jitter=1.5)
        with pytest.raises(ConfigurationError):
            FailurePolicy(backoff_jitter=-0.1)


class TestPointOutcome:
    def test_json_round_trip(self):
        outcome = Outcome(
            index=3,
            key='{"i":3}:rep0',
            status="failed",
            attempts=2,
            error="ValueError: nope",
            traceback="Traceback...\nValueError: nope",
            attempt_seconds=[0.1, 0.2],
        )
        back = Outcome.from_json_dict(outcome.to_json_dict())
        assert back == outcome

    def test_from_json_ignores_unknown_fields(self):
        back = Outcome.from_json_dict(
            {"index": 0, "key": "k", "status": "ok", "future_field": 1}
        )
        assert back.ok and back.attempts == 1

    def test_describe_and_failure_rows(self):
        ok = Outcome(index=0, key="a", status="ok")
        bad = Outcome(
            index=1, key="b", status="crashed", attempts=3, error="boom"
        )
        assert "crashed" in bad.describe() and "boom" in bad.describe()
        rows = failure_rows([ok, bad])
        assert len(rows) == 1
        assert rows[0][0] == 1 and rows[0][2] == "crashed"


class TestChaosSpec:
    def test_plan_mode_targets_point_and_attempt(self):
        chaos = ChaosSpec(plan={2: ("raise", "ok")})
        assert [chaos.action_for(i, 1) for i in range(4)] == [
            "ok",
            "ok",
            "raise",
            "ok",
        ]
        assert chaos.action_for(2, 2) == "ok"
        assert chaos.action_for(2, 3) == "ok"

    def test_rate_mode_is_deterministic_and_seeded(self):
        a = ChaosSpec(seed=7, raise_rate=0.5)
        b = ChaosSpec(seed=7, raise_rate=0.5)
        assert [a.action_for(i, 1) for i in range(64)] == [
            b.action_for(i, 1) for i in range(64)
        ]
        actions = {a.action_for(i, 1) for i in range(64)}
        assert actions == {"ok", "raise"}

    def test_rates_stop_after_attempts_affected(self):
        chaos = ChaosSpec(seed=1, raise_rate=1.0, attempts_affected=2)
        assert chaos.action_for(0, 1) == "raise"
        assert chaos.action_for(0, 2) == "raise"
        assert chaos.action_for(0, 3) == "ok"

    def test_from_dict_normalises_string_keys(self):
        chaos = ChaosSpec.from_dict({"plan": {"3": ["die", "ok"]}})
        assert chaos.action_for(3, 1) == "die"
        assert chaos.needs_isolation()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError):
            ChaosSpec.from_dict({"rais_rate": 0.5})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"plan": {0: ("explode",)}},
            {"raise_rate": 0.8, "die_rate": 0.4},
            {"raise_rate": -0.1},
            {"attempts_affected": -1},
            {"hang_seconds": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            ChaosSpec(**kwargs)

    def test_needs_isolation(self):
        assert not ChaosSpec(raise_rate=0.5).needs_isolation()
        assert ChaosSpec(hang_rate=0.1).needs_isolation()
        assert ChaosSpec(plan={0: ("hang",)}).needs_isolation()
        assert not ChaosSpec(plan={0: ("raise",)}).needs_isolation()

    def test_inject_raise(self):
        with pytest.raises(ChaosError):
            ChaosSpec(plan={0: ("raise",)}).inject(0, 1)
        ChaosSpec(plan={0: ("raise",)}).inject(1, 1)  # other points clean


class TestRunJournal:
    """The run journal's contract, on the result store it lives in."""

    def _journal(self, tmp_path, code_version="pinned"):
        store = ResultStore(tmp_path / "store", code_version=code_version)
        return store.run_journal("E1", "mod:run")

    def test_record_load_round_trip(self, tmp_path):
        journal = self._journal(tmp_path)
        first = Outcome(index=0, key="a", status="ok", attempts=1)
        second = Outcome(
            index=1, key="b", status="failed", attempts=2, error="boom"
        )
        journal.record(first)
        journal.record(second)
        journal.close()
        loaded = self._journal(tmp_path).load()
        assert loaded == {"a": first, "b": second}

    def test_last_record_for_a_key_wins(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.record(Outcome(index=0, key="a", status="failed"))
        journal.record(Outcome(index=0, key="a", status="ok"))
        journal.close()
        assert journal.load()["a"].status == "ok"

    def test_missing_file_loads_empty(self, tmp_path):
        assert self._journal(tmp_path).load() == {}

    def test_reset_truncates(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.record(Outcome(index=0, key="a", status="ok"))
        journal.reset()
        assert journal.load() == {}
        journal.result_store.close()

    def test_for_sweep_binds_code_version(self, tmp_path):
        one = self._journal(tmp_path, code_version="v1")
        one.record(Outcome(index=0, key="a", status="ok"))
        one.result_store.close()
        assert self._journal(tmp_path, code_version="v2").load() == {}
        assert set(self._journal(tmp_path, code_version="v1").load()) == {
            "a"
        }

    def test_rerecording_keeps_only_the_latest_row_per_key(self, tmp_path):
        journal = self._journal(tmp_path)
        for attempt in range(4):
            journal.record(
                Outcome(
                    index=0, key="a", status="failed", attempts=attempt + 1
                )
            )
        journal.record(Outcome(index=0, key="a", status="ok"))
        journal.record(Outcome(index=1, key="b", status="ok"))
        journal.result_store.close()
        conn = sqlite3.connect(tmp_path / "store" / "store.sqlite3")
        try:
            rows = conn.execute("SELECT count(*) FROM outcomes").fetchone()
        finally:
            conn.close()
        assert rows[0] == 2
        loaded = self._journal(tmp_path).load()
        assert {key: o.status for key, o in loaded.items()} == {
            "a": "ok",
            "b": "ok",
        }

    def test_reset_is_scoped_to_its_experiment_and_runner(self, tmp_path):
        store = ResultStore(tmp_path / "store", code_version="pinned")
        mine = store.run_journal("E1", "mod:run")
        other_runner = store.run_journal("E1", "mod:other")
        other_experiment = store.run_journal("E2", "mod:run")
        for journal in (mine, other_runner, other_experiment):
            journal.record(Outcome(index=0, key="a", status="ok"))
        mine.reset()
        assert mine.load() == {}
        assert set(other_runner.load()) == {"a"}
        assert set(other_experiment.load()) == {"a"}
        store.close()

    def test_load_reads_under_a_live_writer(self, tmp_path):
        """Reads take no lock: a status reader never blocks (or is
        blocked by) the run that holds the writer lock."""
        writer = self._journal(tmp_path)
        writer.record(Outcome(index=0, key="a", status="ok"))
        reader = self._journal(tmp_path)
        assert set(reader.load()) == {"a"}
        writer.record(Outcome(index=1, key="b", status="ok"))
        assert set(reader.load()) == {"a", "b"}
        reader.result_store.close()
        writer.record(Outcome(index=2, key="c", status="ok"))
        writer.result_store.close()

    def test_second_writer_raises_journal_locked(self, tmp_path):
        journal = self._journal(tmp_path)
        journal.record(Outcome(index=0, key="a", status="ok"))
        rival = self._journal(tmp_path)
        with pytest.raises(StoreLockedError) as info:
            rival.acquire()
        assert str(os.getpid()) in str(info.value)
        # Closing the holder releases the lock for the next writer.
        journal.close()
        rival.acquire()
        rival.record(Outcome(index=1, key="b", status="ok"))
        rival.close()
        assert set(rival.load()) == {"a", "b"}
        rival.result_store.close()
        journal.result_store.close()

    def test_lock_dies_with_a_killed_holder(self, tmp_path):
        """flock is released by the kernel when the holder is SIGKILLed,
        and the outcome it committed survives the kill."""
        script = (
            "import sys, time\n"
            "from repro.experiments.resilience import Outcome\n"
            "from repro.store import ResultStore\n"
            "store = ResultStore(sys.argv[1], code_version='pinned')\n"
            "journal = store.run_journal('E1', 'mod:run')\n"
            "journal.record(Outcome(index=0, key='a', status='ok'))\n"
            "print('locked', flush=True)\n"
            "time.sleep(60)\n"
        )
        holder = subprocess.Popen(
            [sys.executable, "-c", script, str(tmp_path / "store")],
            env=_subprocess_env(),
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            assert holder.stdout.readline().strip() == "locked"
            rival = self._journal(tmp_path)
            with pytest.raises(StoreLockedError):
                rival.acquire()
            holder.kill()
            holder.wait(timeout=30)
            rival.acquire()  # stale lockfile, lock itself died
            assert set(rival.load()) == {"a"}
            rival.result_store.close()
        finally:
            if holder.poll() is None:
                holder.kill()
                holder.wait(timeout=30)
            holder.stdout.close()

    def test_kill_mid_record_keeps_only_committed_outcomes(self, tmp_path):
        """A crash inside an outcome's transaction loses that outcome
        whole: the journal reopens clean with the earlier records."""
        script = (
            "import sys\n"
            "from repro.experiments.resilience import Outcome\n"
            "from repro.store import ResultStore\n"
            "store = ResultStore(sys.argv[1], code_version='pinned')\n"
            "journal = store.run_journal('E1', 'mod:run')\n"
            "journal.record(Outcome(index=0, key='a', status='ok'))\n"
            "journal.record(Outcome(index=1, key='b', status='ok'))\n"
        )
        env = _subprocess_env()
        env[FAULT_ENV] = "outcome-pre-commit:2"
        killed = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "store")],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert killed.returncode == CHAOS_EXIT_CODE, killed.stderr
        journal = self._journal(tmp_path)
        assert set(journal.load()) == {"a"}
        journal.record(Outcome(index=1, key="b", status="ok"))
        assert set(journal.load()) == {"a", "b"}
        journal.result_store.close()


class TestRetriesSerial:
    def test_retry_recovers_and_counts_attempts(self):
        chaos = ChaosSpec(plan={1: ("raise", "raise")})
        result = run_sweep(
            _spec(4),
            _arith,
            workers=1,
            policy=FailurePolicy(max_attempts=3),
            chaos=chaos,
        )
        assert result.values == _reference_values(4)
        assert [o.status for o in result.outcomes] == ["ok"] * 4
        assert [o.attempts for o in result.outcomes] == [1, 3, 1, 1]
        assert len(result.outcomes[1].attempt_seconds) == 3
        assert result.ok_count == 4 and result.failure_count == 0

    def test_terminal_failure_raises_original_exception(self):
        spec = SweepSpec("boom", axes={"i": [4, 9]})
        with pytest.raises(ValueError, match="permanently bad"):
            run_sweep(
                spec,
                _fail_multiples_of_five,
                workers=1,
                policy=FailurePolicy(max_attempts=2),
            )

    def test_chaos_terminal_failure_raises_chaos_error(self):
        with pytest.raises(ChaosError):
            run_sweep(
                _spec(2),
                _arith,
                workers=1,
                chaos=ChaosSpec(plan={0: ("raise",)}),
            )

    def test_collect_records_error_and_traceback(self):
        spec = SweepSpec("boom", axes={"i": [3, 4, 5]})
        result = run_sweep(
            spec,
            _fail_multiples_of_five,
            workers=1,
            policy=FailurePolicy(max_attempts=2, on_error="collect"),
        )
        assert [o.status for o in result.outcomes] == ["ok", "failed", "ok"]
        failed = result.outcomes[1]
        assert result.values[1] is None
        assert failed.attempts == 2
        assert "ValueError: point 4 is permanently bad" in failed.error
        assert "Traceback" in failed.traceback
        assert result.failures() == [failed]
        with pytest.raises(PointFailedError):
            result.raise_if_failed()

    def test_on_result_streams_only_ok_points_in_order(self):
        delivered = []
        outcomes_seen = []
        result = run_sweep(
            SweepSpec("boom", axes={"i": [3, 4, 5, 9]}),
            _fail_multiples_of_five,
            workers=1,
            policy=FailurePolicy(on_error="collect"),
            on_result=lambda point, value: delivered.append(
                point.params["i"]
            ),
            on_outcome=lambda point, outcome: outcomes_seen.append(
                (point.params["i"], outcome.status)
            ),
        )
        assert delivered == [3, 5]
        assert outcomes_seen == [
            (3, "ok"),
            (4, "failed"),
            (5, "ok"),
            (9, "failed"),
        ]
        assert result.ok_count == 2

    def test_backoff_sleeps_between_attempts(self):
        start = time.perf_counter()
        result = run_sweep(
            _spec(1),
            _arith,
            workers=1,
            policy=FailurePolicy(max_attempts=3, backoff_seconds=0.05),
            chaos=ChaosSpec(plan={0: ("raise", "raise")}),
        )
        elapsed = time.perf_counter() - start
        assert result.outcomes[0].attempts == 3
        # 0.05 + 0.10 of backoff, shrunk by at most 25% of per-key
        # jitter (backoff_jitter=0.25 default).
        assert elapsed >= 0.75 * 0.15


class TestTimeouts:
    def test_hung_point_times_out_and_pool_recovers(self):
        chaos = ChaosSpec(plan={1: ("hang",)})
        start = time.perf_counter()
        result = run_sweep(
            _spec(3),
            _arith,
            workers=2,
            policy=FailurePolicy(
                timeout_seconds=0.5, on_error="collect"
            ),
            chaos=chaos,
        )
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0  # nothing waited for the 3600 s hang
        assert [o.status for o in result.outcomes] == [
            "ok",
            "timed_out",
            "ok",
        ]
        assert result.values[0] == _reference_values(3)[0]
        assert result.values[1] is None
        assert "wall-clock timeout" in result.outcomes[1].error
        assert _no_orphans()

    def test_retry_after_timeout_recovers(self):
        chaos = ChaosSpec(plan={0: ("hang", "ok")})
        result = run_sweep(
            _spec(2),
            _arith,
            workers=2,
            policy=FailurePolicy(
                max_attempts=2, timeout_seconds=0.5, on_error="collect"
            ),
            chaos=chaos,
        )
        assert [o.status for o in result.outcomes] == ["ok", "ok"]
        assert result.outcomes[0].attempts == 2
        assert result.values == _reference_values(2)

    def test_timeout_forces_isolation_even_at_workers_1(self):
        chaos = ChaosSpec(plan={0: ("hang",)})
        result = run_sweep(
            _spec(2),
            _arith,
            workers=1,
            policy=FailurePolicy(
                timeout_seconds=0.5, on_error="collect"
            ),
            chaos=chaos,
        )
        assert [o.status for o in result.outcomes] == ["timed_out", "ok"]
        assert _no_orphans()


class TestCrashRecovery:
    def test_worker_death_is_retried_transparently(self):
        chaos = ChaosSpec(plan={2: ("die", "ok")})
        result = run_sweep(
            _spec(6),
            _arith,
            workers=3,
            policy=FailurePolicy(max_attempts=3, on_error="collect"),
            chaos=chaos,
        )
        assert [o.status for o in result.outcomes] == ["ok"] * 6
        assert result.values == _reference_values(6)
        assert result.outcomes[2].attempts >= 2
        assert _no_orphans()

    def test_repeat_killer_goes_terminal_without_convicting_innocents(self):
        chaos = ChaosSpec(plan={1: ("die", "die", "die", "die")})
        result = run_sweep(
            _spec(8),
            _arith,
            workers=4,
            policy=FailurePolicy(
                max_attempts=4, max_crashes=2, on_error="collect"
            ),
            chaos=chaos,
        )
        statuses = [o.status for o in result.outcomes]
        assert statuses[1] == "crashed"
        assert statuses[:1] + statuses[2:] == ["ok"] * 7
        assert result.outcomes[1].attempts == 2
        assert "worker process died" in result.outcomes[1].error
        reference = _reference_values(8)
        for index in range(8):
            if index != 1:
                assert result.values[index] == reference[index]
        assert _no_orphans()

    def test_crash_in_raise_mode_aborts_with_point_failed_error(self):
        chaos = ChaosSpec(plan={0: ("die", "die")})
        with pytest.raises(PointFailedError) as excinfo:
            run_sweep(
                _spec(2),
                _arith,
                workers=2,
                policy=FailurePolicy(max_attempts=2, max_crashes=1),
                chaos=chaos,
            )
        assert excinfo.value.outcome.status == "crashed"
        assert _no_orphans()


class TestCleanShutdown:
    def test_on_result_exception_terminates_workers(self):
        def explode(point, value):
            raise RuntimeError("aggregation bug")

        with pytest.raises(RuntimeError, match="aggregation bug"):
            run_sweep(
                _spec(8),
                _slow_arith,
                workers=4,
                on_result=explode,
            )
        assert _no_orphans()

    def test_keyboard_interrupt_terminates_workers(self):
        def interrupt(point, value):
            raise KeyboardInterrupt()

        with pytest.raises(KeyboardInterrupt):
            run_sweep(
                _spec(8),
                _slow_arith,
                workers=4,
                on_result=interrupt,
            )
        assert _no_orphans()


class TestByteIdentityUnderChaos:
    """The chaos matrix: every completed value is byte-identical to a
    serial, chaos-free run, at any worker count, under any injected
    fault mix the retry budget can absorb."""

    N = 12

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize(
        "chaos",
        [
            ChaosSpec(plan={1: ("raise",), 5: ("raise", "raise")}),
            ChaosSpec(seed=11, raise_rate=0.5),
            ChaosSpec(plan={2: ("die", "ok"), 7: ("raise",)}),
            ChaosSpec(plan={0: ("hang", "ok"), 9: ("raise",)}),
        ],
        ids=["plan-raise", "rate-raise", "die", "hang"],
    )
    def test_completed_points_byte_identical(self, workers, chaos):
        policy = FailurePolicy(
            max_attempts=3,
            on_error="collect",
            timeout_seconds=(
                0.5 if chaos.needs_isolation() else None
            ),
        )
        reference = _reference_values(self.N, seed=42)
        result = run_sweep(
            _spec(self.N, seed=42),
            _arith,
            workers=workers,
            policy=policy,
            chaos=chaos,
        )
        assert [o.status for o in result.outcomes] == ["ok"] * self.N
        assert canonical_bytes(result.values) == canonical_bytes(
            reference
        )
        assert _no_orphans()


class TestJournalResume:
    def _marker_env(self, tmp_path, monkeypatch):
        markers = tmp_path / "executions"
        markers.mkdir()
        monkeypatch.setenv(MARKER_DIR_VAR, str(markers))
        return markers

    def _store(self, tmp_path):
        return ResultStore(tmp_path / "cache", code_version="pinned")

    def _journal(self, store, spec, runner):
        return store.run_journal(spec.experiment_id, runner_name(runner))

    def test_resume_skips_ok_and_failed_points(self, tmp_path, monkeypatch):
        markers = self._marker_env(tmp_path, monkeypatch)
        spec = _spec(10, experiment_id="resume-test")
        store = self._store(tmp_path)
        cache = store.sweep_cache()
        policy = FailurePolicy(max_attempts=2, on_error="collect")

        first = run_sweep(
            spec,
            _fail_multiples_of_five,
            workers=1,
            cache=cache,
            policy=policy,
            journal=self._journal(store, spec, _fail_multiples_of_five),
        )
        assert first.ok_count == 8 and first.failure_count == 2
        executed_first = len(list(markers.iterdir()))
        assert executed_first == 8 + 2 * 2  # 2 attempts per bad point

        second = run_sweep(
            spec,
            _fail_multiples_of_five,
            workers=1,
            cache=cache,
            policy=policy,
            journal=self._journal(store, spec, _fail_multiples_of_five),
            resume=True,
        )
        assert len(list(markers.iterdir())) == executed_first  # 0 re-runs
        assert second.values == first.values
        assert [o.status for o in second.outcomes] == [
            o.status for o in first.outcomes
        ]
        assert all(o.resumed for o in second.outcomes)
        assert all(o.cached for o in second.outcomes if o.ok)
        failed = [o for o in second.outcomes if not o.ok]
        assert all(
            "permanently bad" in o.error and o.attempts == 2
            for o in failed
        )

    def test_resume_false_retries_failed_points(self, tmp_path, monkeypatch):
        markers = self._marker_env(tmp_path, monkeypatch)
        spec = _spec(10, experiment_id="reset-test")
        store = self._store(tmp_path)
        cache = store.sweep_cache()
        policy = FailurePolicy(max_attempts=2, on_error="collect")
        run_sweep(
            spec,
            _fail_multiples_of_five,
            workers=1,
            cache=cache,
            policy=policy,
            journal=self._journal(store, spec, _fail_multiples_of_five),
        )
        before = len(list(markers.iterdir()))
        result = run_sweep(
            spec,
            _fail_multiples_of_five,
            workers=1,
            cache=cache,
            policy=policy,
            journal=self._journal(store, spec, _fail_multiples_of_five),
            resume=False,
        )
        # Cached ok points still skip; only the 2 bad points re-burn
        # their 2 attempts each.
        assert len(list(markers.iterdir())) == before + 4
        assert result.failure_count == 2
        assert not any(o.resumed for o in result.outcomes if not o.ok)

    def test_journal_ok_without_cache_reexecutes(
        self, tmp_path, monkeypatch
    ):
        markers = self._marker_env(tmp_path, monkeypatch)
        spec = _spec(3, experiment_id="no-cache-test")
        store = self._store(tmp_path)
        run_sweep(
            spec,
            _arith_marked,
            workers=1,
            journal=self._journal(store, spec, _arith_marked),
        )
        before = len(list(markers.iterdir()))
        assert before == 3
        # No cache: journaled ok points have no stored value to serve,
        # so a resumed run must re-execute them (values matter).
        result = run_sweep(
            spec,
            _arith_marked,
            workers=1,
            journal=self._journal(store, spec, _arith_marked),
            resume=True,
        )
        assert len(list(markers.iterdir())) == before + 3
        # Seeds derive from the experiment id too, so the ground truth
        # must come from the same spec.
        assert result.values == run_sweep(spec, _arith, workers=1).values


class TestAcceptanceScenario:
    """The ISSUE acceptance bar: a 30-point sweep with chaos worker
    crashes and 20% permanently-failing points completes under
    ``collect`` with 24 ok outcomes and full error records, and the
    completed values are byte-identical serial vs parallel with
    retries enabled."""

    def test_thirty_point_chaos_campaign(self, tmp_path, monkeypatch):
        markers = tmp_path / "executions"
        markers.mkdir()
        monkeypatch.setenv(MARKER_DIR_VAR, str(markers))
        spec = _spec(30, experiment_id="acceptance")
        chaos = ChaosSpec(
            plan={3: ("die", "ok"), 11: ("raise",), 17: ("die", "ok")}
        )
        policy = FailurePolicy(max_attempts=3, on_error="collect")
        result = run_sweep(
            spec,
            _fail_multiples_of_five,
            workers=4,
            policy=policy,
            chaos=chaos,
        )
        assert result.ok_count == 24
        assert result.failure_count == 6
        for outcome in result.failures():
            assert outcome.status == "failed"
            assert outcome.attempts == 3
            assert "permanently bad" in outcome.error
            assert "Traceback" in outcome.traceback
            assert len(outcome.attempt_seconds) == 3

        serial = run_sweep(
            spec,
            _fail_multiples_of_five,
            workers=1,
            policy=FailurePolicy(max_attempts=3, on_error="collect"),
        )
        assert canonical_bytes(result.values) == canonical_bytes(
            serial.values
        )
        assert _no_orphans()


#: Driver script for the SIGKILL-resume round trip.  Both the first
#: (killed) run and the resumed run execute it in a fresh interpreter,
#: so the runner's name — part of the journal identity — matches.
_KILL_DRIVER = """
import json, os, sys, time
from pathlib import Path

from repro.experiments.resilience import FailurePolicy
from repro.experiments.sweep import SweepSpec, run_sweep, runner_name
from repro.store import ResultStore

workdir = Path(sys.argv[1])
mode = sys.argv[2]  # "first" (slow, killed) or "resume"
markers = workdir / "executions"
markers.mkdir(exist_ok=True)


def runner(params, seed):
    name = f"exec-{params['i']}-{os.getpid()}-{time.monotonic_ns()}"
    (markers / name).touch()
    if params["i"] == 2:
        raise ValueError("permanently bad point")
    if mode == "first":
        time.sleep(0.2)
    return params["i"] * 10 + (seed % 7)


spec = SweepSpec("kill-resume", axes={"i": list(range(8))})
store = ResultStore(workdir / "cache", code_version="pinned")
result = run_sweep(
    spec,
    runner,
    workers=1,
    cache=store.sweep_cache(),
    policy=FailurePolicy(on_error="collect"),
    journal=store.run_journal(spec.experiment_id, runner_name(runner)),
    resume=True,
)
(workdir / f"result-{mode}.json").write_text(
    json.dumps(
        {
            "values": result.values,
            "statuses": [o.status for o in result.outcomes],
            "resumed": [o.resumed for o in result.outcomes],
        }
    )
)
"""


class TestSigkillResume:
    def test_resume_after_sigkill_reexecutes_zero_journaled_points(
        self, tmp_path
    ):
        driver = tmp_path / "driver.py"
        driver.write_text(_KILL_DRIVER)
        env = _subprocess_env()
        store_dir = tmp_path / "cache"
        markers = tmp_path / "executions"

        first = subprocess.Popen(
            [sys.executable, str(driver), str(tmp_path), "first"],
            env=env,
        )
        try:
            # Let a few points journal durably, then SIGKILL mid-run.
            deadline = time.monotonic() + 30.0
            journaled = 0
            while time.monotonic() < deadline:
                journaled = len(_journaled_keys(store_dir))
                if journaled >= 3:
                    break
                if first.poll() is not None:
                    break
                time.sleep(0.05)
            assert journaled >= 3, "first run never journaled 3 points"
            assert first.poll() is None, "first run finished too fast"
        finally:
            if first.poll() is None:
                first.send_signal(signal.SIGKILL)
            first.wait(timeout=10)
        assert not (tmp_path / "result-first.json").exists()

        journaled_indices = {
            json.loads(key.split(":rep")[0])["i"]
            for key in _journaled_keys(store_dir)
        }
        executed_before = {
            int(path.name.split("-")[1])
            for path in markers.iterdir()
        }

        resumed = subprocess.run(
            [sys.executable, str(driver), str(tmp_path), "resume"],
            env=env,
            timeout=60,
        )
        assert resumed.returncode == 0
        executed_after = {
            int(path.name.split("-")[1])
            for path in markers.iterdir()
        }
        report = json.loads(
            (tmp_path / "result-resume.json").read_text()
        )
        # Zero journaled points re-executed; the rest completed.
        new_executions = executed_after - executed_before
        assert not (new_executions & journaled_indices)
        expected_statuses = [
            "failed" if i == 2 else "ok" for i in range(8)
        ]
        assert report["statuses"] == expected_statuses
        assert report["values"] == [
            None if i == 2 else i * 10 + (i_seed % 7)
            for i, i_seed in (
                (i, _seed_of("kill-resume", i)) for i in range(8)
            )
        ]
        # Every point journaled before the kill was replayed, not rerun.
        for index, was_resumed in enumerate(report["resumed"]):
            if index in journaled_indices:
                assert was_resumed


def _journaled_keys(store_dir):
    """Point keys whose outcome the store has committed."""
    if not (store_dir / "store.sqlite3").exists():
        return set()
    conn = sqlite3.connect(store_dir / "store.sqlite3", timeout=10)
    try:
        return {key for (key,) in conn.execute(
            "SELECT point_key FROM outcomes"
        )}
    except sqlite3.Error:  # schema not created yet
        return set()
    finally:
        conn.close()


def _seed_of(experiment_id, i):
    """Per-point seed the driver's spec derives (mirrors SweepSpec)."""
    spec = SweepSpec(experiment_id, axes={"i": list(range(8))})
    return spec.points()[i].seed
