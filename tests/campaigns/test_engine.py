"""Campaign engine tests: execution, retries, cone-skips, resume."""

import sqlite3
import time

import pytest

from repro.campaigns import (
    CampaignEngine,
    CampaignSpec,
    StageSpec,
    stage_seed,
)
from repro.errors import CampaignError, ConfigurationError, StoreLockedError
from repro.experiments.resilience import (
    STATUS_SKIPPED,
    ChaosSpec,
    FailurePolicy,
)

from tests.campaigns.conftest import diamond_campaign, marker_count


def run(spec, tmp_path, resume=False, **kwargs):
    kwargs.setdefault("code_version", "pinned")
    return CampaignEngine(spec, tmp_path, **kwargs).run(resume=resume)


class TestExecution:
    def test_values_flow_through_the_dag(self, diamond, tmp_path):
        result = run(diamond, tmp_path)
        assert result.ok
        # a=1, b=1+2, c=1+3, d=3+4+4
        assert result.values == {"a": 1, "b": 3, "c": 4, "d": 11}
        assert result.order == ["a", "b", "c", "d"]

    def test_each_stage_executes_exactly_once(self, diamond, tmp_path):
        run(diamond, tmp_path)
        for stage in "abcd":
            assert marker_count(tmp_path, stage, "completed") == 1

    def test_stage_seeds_are_stable_and_distinct(self):
        seeds = {
            stage: stage_seed(3, "diamond", stage) for stage in "abcd"
        }
        assert len(set(seeds.values())) == 4
        assert seeds["a"] == stage_seed(3, "diamond", "a")
        assert stage_seed(4, "diamond", "a") != seeds["a"]

    def test_unknown_step_fails_the_stage(self, tmp_path):
        spec = CampaignSpec(
            name="bad-step",
            stages=(StageSpec(name="a", step="no.such.step"),),
        )
        with pytest.raises(CampaignError):
            run(spec, tmp_path)

    def test_unknown_backend_rejected(self, diamond, tmp_path):
        with pytest.raises(ConfigurationError, match="backend"):
            CampaignEngine(diamond, tmp_path, backend="gpu-farm")


class TestRetries:
    def test_flaky_stage_retries_to_success(self, tmp_path):
        spec = diamond_campaign(
            b={"step": "t.flaky", "params": {"fail_times": 2, "x": 9},
               "after": ("a",), "retries": 3},
        )
        result = run(spec, tmp_path)
        assert result.ok
        assert result.outcomes["b"].attempts == 3
        assert result.values["b"] == 9

    def test_exhausted_policy_raises_by_default(self, tmp_path):
        spec = diamond_campaign(b={"step": "t.fail", "after": ("a",)})
        with pytest.raises(CampaignError) as info:
            run(spec, tmp_path)
        assert info.value.outcome.key == "b"
        assert "always fails" in (info.value.outcome.error or "")

    def test_collect_skips_only_the_downstream_cone(self, tmp_path):
        spec = diamond_campaign(
            b={"step": "t.fail", "after": ("a",), "on_error": "collect"},
        )
        result = run(spec, tmp_path)
        assert not result.ok
        assert result.outcomes["b"].status == "failed"
        assert result.outcomes["d"].status == STATUS_SKIPPED
        # The independent branch kept running.
        assert result.outcomes["c"].ok
        assert result.values["c"] == 4
        assert marker_count(tmp_path, "c", "completed") == 1
        assert marker_count(tmp_path, "d", "started") == 0

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_timeout_counts_as_terminal_timed_out(self, tmp_path, backend):
        spec = diamond_campaign(
            b={
                "step": "t.sleep",
                "params": {"seconds": 30.0},
                "after": ("a",),
                "timeout_seconds": 0.5,
                "on_error": "collect",
            },
            # Still running when b's deadline kills the pool.
            c={"step": "t.sleep", "params": {"seconds": 1.0},
               "after": ("a",)},
        )
        result = run(spec, tmp_path, backend=backend, workers=2)
        assert result.outcomes["b"].status == "timed_out"
        assert result.outcomes["d"].status == STATUS_SKIPPED
        assert result.outcomes["c"].ok
        if backend == "process":
            # The rebuild killed c's worker: c was resubmitted and not
            # charged, and only its second run completed.
            assert result.outcomes["c"].attempts == 1
            assert marker_count(tmp_path, "c", "completed") == 1


class TestChaos:
    def test_stage_chaos_raise_is_retried(self, diamond, tmp_path):
        spec = diamond_campaign(b={"after": ("a",), "retries": 1})
        chaos = ChaosSpec(stage_plan={"b": ("raise", "ok")})
        result = run(spec, tmp_path, chaos=chaos)
        assert result.ok
        assert result.outcomes["b"].attempts == 2
        # Chaos is injected before dispatch: the failed attempt never
        # reached the step.
        assert marker_count(tmp_path, "b", "started") == 1

    def test_stage_chaos_exhausts_policy(self, tmp_path):
        spec = diamond_campaign(
            b={"after": ("a",), "on_error": "collect"},
        )
        chaos = ChaosSpec(stage_plan={"b": ("raise",)})
        result = run(spec, tmp_path, chaos=chaos)
        assert result.outcomes["b"].status == "failed"
        assert "chaos" in result.outcomes["b"].error
        assert marker_count(tmp_path, "b", "started") == 0

    def test_chaos_does_not_perturb_values(self, tmp_path):
        clean = run(diamond_campaign(), tmp_path / "clean")
        spec = diamond_campaign(b={"after": ("a",), "retries": 2})
        chaos = ChaosSpec(stage_plan={"b": ("raise", "raise", "ok")})
        chaotic = run(spec, tmp_path / "chaotic", chaos=chaos)
        assert clean.canonical_digest() == chaotic.canonical_digest()


class TestBackoff:
    def test_due_retry_does_not_wait_for_a_running_sibling(self, tmp_path):
        # flaky's first attempt fails at the boundary while long keeps
        # a worker busy for 3 s; its retry is due after ~0.2 s and must
        # start then, not when long reports.
        spec = CampaignSpec(
            name="stall",
            stages=(
                StageSpec(name="long", step="t.sleep",
                          params={"seconds": 3.0}),
                StageSpec(name="flaky", step="t.add", params={"x": 1},
                          retries=1, backoff_seconds=0.2),
            ),
        )
        chaos = ChaosSpec(stage_plan={"flaky": ("raise", "ok")})
        began = time.time()
        result = run(spec, tmp_path, backend="process", workers=2,
                     chaos=chaos)
        assert result.ok
        assert result.outcomes["flaky"].attempts == 2
        marker = tmp_path / "counts" / "flaky.started"
        assert marker.stat().st_mtime - began < 2.0


class TestResume:
    def test_resume_reexecutes_zero_completed_stages(
        self, diamond, tmp_path
    ):
        first = run(diamond, tmp_path)
        second = run(diamond, tmp_path, resume=True)
        assert second.ok
        assert second.resumed_stages() == ["a", "b", "c", "d"]
        assert second.canonical_digest() == first.canonical_digest()
        for stage in "abcd":
            assert marker_count(tmp_path, stage, "started") == 1

    def test_fresh_run_truncates_the_journal(self, diamond, tmp_path):
        run(diamond, tmp_path)
        result = run(diamond, tmp_path, resume=False)
        assert result.resumed_stages() == []
        for stage in "abcd":
            assert marker_count(tmp_path, stage, "started") == 2

    def test_interrupted_run_resumes_from_the_boundary(self, tmp_path):
        spec = diamond_campaign(
            c={"step": "t.interrupt_once", "params": {"x": 3},
               "after": ("a",)},
        )
        (tmp_path / "c.sentinel").parent.mkdir(exist_ok=True)
        (tmp_path / "c.sentinel").touch()
        with pytest.raises(KeyboardInterrupt):
            run(spec, tmp_path)
        # a and b journaled before the interrupt; c never completed.
        resumed = run(spec, tmp_path, resume=True)
        assert resumed.ok
        assert set(resumed.resumed_stages()) >= {"a"}
        assert marker_count(tmp_path, "a", "started") == 1
        assert marker_count(tmp_path, "c", "completed") == 1
        # Byte-identity vs the same spec run uninterrupted (no
        # sentinel, so the interrupting stage completes first try).
        baseline = run(spec, tmp_path / "clean")
        assert resumed.canonical_digest() == baseline.canonical_digest()

    def test_resumed_failure_replays_without_reexecution(self, tmp_path):
        spec = diamond_campaign(
            b={"step": "t.fail", "after": ("a",), "on_error": "collect"},
        )
        run(spec, tmp_path)
        assert marker_count(tmp_path, "b", "started") == 1
        result = run(spec, tmp_path, resume=True)
        assert result.outcomes["b"].status == "failed"
        assert result.outcomes["b"].resumed
        assert result.outcomes["d"].status == STATUS_SKIPPED
        assert marker_count(tmp_path, "b", "started") == 1

    def test_missing_stage_value_forces_reexecution(
        self, diamond, tmp_path
    ):
        first = run(diamond, tmp_path)
        conn = sqlite3.connect(tmp_path / "store.sqlite3")
        with conn:
            conn.execute("DELETE FROM stage_values WHERE stage = 'b'")
        conn.close()
        engine = CampaignEngine(diamond, tmp_path, code_version="pinned")
        second = engine.run(resume=True)
        assert second.ok
        assert "b" not in second.resumed_stages()
        assert marker_count(tmp_path, "b", "started") == 2
        assert second.canonical_digest() == first.canonical_digest()

    def test_code_version_change_starts_fresh(self, diamond, tmp_path):
        run(diamond, tmp_path, code_version="v1")
        result = run(
            diamond, tmp_path, resume=True, code_version="v2"
        )
        assert result.resumed_stages() == []
        for stage in "abcd":
            assert marker_count(tmp_path, stage, "started") == 2


class TestBackends:
    def test_process_backend_matches_serial_byte_for_byte(
        self, tmp_path
    ):
        spec = diamond_campaign(
            b={"step": "t.seeded", "after": ("a",)},
            c={"step": "t.seeded", "after": ("a",)},
            d={"step": "t.seeded", "after": ("b", "c")},
        )
        serial = run(spec, tmp_path / "serial", backend="serial")
        pooled = run(
            spec, tmp_path / "pool", backend="process", workers=2
        )
        assert serial.ok and pooled.ok
        assert serial.canonical_digest() == pooled.canonical_digest()
        assert pooled.backend == "process"

    def test_process_backend_resumes_serial_state(self, tmp_path):
        spec = diamond_campaign()
        first = run(spec, tmp_path, backend="serial")
        second = run(
            spec, tmp_path, resume=True, backend="process", workers=2
        )
        assert second.resumed_stages() == ["a", "b", "c", "d"]
        assert second.canonical_digest() == first.canonical_digest()

    def test_crash_is_not_charged_to_an_innocent_sibling(self, tmp_path):
        spec = diamond_campaign(
            b={"step": "t.die_once", "after": ("a",),
               "on_error": "collect"},
            c={"step": "t.sleep", "params": {"seconds": 1.0},
               "after": ("a",), "retries": 0, "on_error": "collect"},
            d={"step": "t.seeded", "after": ("b", "c")},
        )
        (tmp_path / "b.die").write_text("")
        result = run(spec, tmp_path, backend="process", workers=2)
        # Both were in flight when b's worker died; each re-ran alone
        # and neither crashed again, so nobody was charged.
        assert result.outcomes["c"].ok
        assert result.outcomes["c"].attempts == 1
        assert result.outcomes["b"].ok
        assert result.ok
        assert not (tmp_path / "b.die").exists()


    def test_solo_crash_spends_the_crash_budget(self, tmp_path):
        spec = diamond_campaign(
            b={"step": "t.die_always", "after": ("a",), "retries": 0,
               "on_error": "collect"},
        )
        result = run(spec, tmp_path, backend="process", workers=2)
        # Each convicted solo crash spends one of max_crashes, not one
        # of retries + 1, exactly as for sweep points.
        assert result.outcomes["b"].status == "crashed"
        assert result.outcomes["b"].attempts == FailurePolicy().max_crashes
        assert "crash 3/3" in result.outcomes["b"].error
        assert result.outcomes["d"].status == STATUS_SKIPPED
        assert result.outcomes["c"].ok


class TestJournalGuard:
    def test_second_writer_is_locked_out(self, diamond, tmp_path):
        engine = CampaignEngine(diamond, tmp_path, code_version="pinned")
        engine.store.acquire()
        try:
            rival = CampaignEngine(
                diamond, tmp_path, code_version="pinned"
            )
            with pytest.raises(StoreLockedError):
                rival.run()
        finally:
            engine.store.close()

    def test_status_reads_without_locking(self, diamond, tmp_path):
        engine = CampaignEngine(diamond, tmp_path, code_version="pinned")
        before = engine.status()
        assert before["completed"] == 0
        assert set(before["stages"]) == {"a", "b", "c", "d"}
        engine.run()
        after = engine.status()
        assert after["completed"] == 4
        assert all(
            entry["status"] == "ok" for entry in after["stages"].values()
        )
