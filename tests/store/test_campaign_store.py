"""Store-backed campaigns: resume and crash-resume at every stage
commit boundary.

``CampaignEngine`` keeps its stage journal and stage values in the
``stages``/``stage_values`` tables of a store at its state directory.
Resume must replay completed stages without re-executing them, and a
kill at any stage fault site must leave a store that resumes to the
clean-run digest.
"""

import json
import pickle

import pytest

from repro.campaigns import CampaignEngine
from repro.experiments.resilience import CHAOS_EXIT_CODE

from tests.campaigns.conftest import diamond_campaign, marker_count
from tests.store.conftest import run_driver


class TestEngineEquivalence:
    def test_resume_replays_all_stages_without_reexecution(self, tmp_path):
        spec = diamond_campaign(name="store-resume")
        state = tmp_path / "state"
        engine_kwargs = dict(code_version="pinned")
        first = CampaignEngine(spec, state, **engine_kwargs).run()
        second = CampaignEngine(spec, state, **engine_kwargs).run(
            resume=True
        )
        assert second.canonical_digest() == first.canonical_digest()
        assert sorted(second.resumed_stages()) == ["a", "b", "c", "d"]
        for stage in ("a", "b", "c", "d"):
            assert marker_count(state, stage, "started") == 1

    def test_code_change_starts_the_campaign_fresh(self, tmp_path):
        spec = diamond_campaign(name="store-versions")
        state = tmp_path / "state"
        first = CampaignEngine(spec, state, code_version="v1").run()
        changed = CampaignEngine(spec, state, code_version="v2").run(
            resume=True
        )
        # Stage outcomes are keyed by code version: nothing replays.
        assert changed.resumed_stages() == []
        assert changed.canonical_digest() == first.canonical_digest()
        back = CampaignEngine(spec, state, code_version="v1").run(
            resume=True
        )
        assert sorted(back.resumed_stages()) == ["a", "b", "c", "d"]
        for stage in ("a", "b", "c", "d"):
            assert marker_count(state, stage, "started") == 2

    def test_resume_over_an_old_file_layout_recomputes(self, tmp_path):
        """A state directory from the file-based layout (JSONL stage
        journal, pickled stage values) is not read: resume recomputes."""
        spec = diamond_campaign(name="store-legacy")
        state = tmp_path / "state"
        (state / "results").mkdir(parents=True)
        for stage in ("a", "b", "c", "d"):
            (state / "results" / f"{stage}.pkl").write_bytes(
                pickle.dumps(999)
            )
        (state / "store-legacy.campaign.jsonl").write_text(
            "".join(
                json.dumps({"stage": stage, "status": "ok"}) + "\n"
                for stage in ("a", "b", "c", "d")
            )
        )
        resumed = CampaignEngine(spec, state, code_version="pinned").run(
            resume=True
        )
        assert resumed.resumed_stages() == []
        clean = CampaignEngine(
            spec, tmp_path / "clean", code_version="pinned"
        ).run()
        assert resumed.canonical_digest() == clean.canonical_digest()
        assert resumed.values == clean.values
        for stage in ("a", "b", "c", "d"):
            assert marker_count(state, stage, "started") == 1

    def test_status_is_read_only(self, tmp_path):
        spec = diamond_campaign(name="store-status")
        state = tmp_path / "state"
        store_dir = state
        # Status on a campaign that never ran: no store side effects.
        engine = CampaignEngine(spec, state, code_version="pinned")
        status = engine.status()
        assert status["completed"] == 0
        assert not (store_dir / "store.sqlite3.lock").exists() or (
            (store_dir / "store.sqlite3.lock").read_text() == ""
        )
        CampaignEngine(spec, state, code_version="pinned").run()
        after = CampaignEngine(spec, state, code_version="pinned").status()
        assert after["completed"] == 4
        assert all(
            record["status"] == "ok" for record in after["stages"].values()
        )


#: Stage-boundary kill driver: diamond campaign on the store journal,
#: killed by REPRO_STORE_FAULT (set by the parent), resumed clean.
#: argv: workdir mode   (mode: "run" | "resume" | "clean")
_CAMPAIGN_DRIVER = """
import json, os, sys
from pathlib import Path

from repro.campaigns import CampaignEngine, CampaignSpec, StageSpec, STEPS

workdir = Path(sys.argv[1])
mode = sys.argv[2]


@STEPS.register("s.add")
def _add(ctx):
    counts = Path(ctx.state_dir) / "counts"
    counts.mkdir(parents=True, exist_ok=True)
    with open(counts / f"{ctx.stage}.runs", "a") as handle:
        handle.write(f"{os.getpid()}\\n")
        handle.flush()
        os.fsync(handle.fileno())
    return ctx.param("x", 0) + sum(
        ctx.upstream[dep] for dep in sorted(ctx.upstream)
    ) + ctx.seed % 97


spec = CampaignSpec(name="store-crash", seed=11, stages=(
    StageSpec(name="a", step="s.add", params={"x": 1}),
    StageSpec(name="b", step="s.add", params={"x": 2}, after=("a",)),
    StageSpec(name="c", step="s.add", params={"x": 3}, after=("a",)),
    StageSpec(name="d", step="s.add", params={"x": 4}, after=("b", "c")),
))
state = workdir / ("clean" if mode == "clean" else "state")
engine = CampaignEngine(spec, state, code_version="pinned")
result = engine.run(resume=(mode == "resume"))
(workdir / f"result-{mode}.json").write_text(json.dumps({
    "digest": result.canonical_digest(),
    "resumed": sorted(result.resumed_stages()),
    "statuses": {n: result.outcomes[n].status for n in result.order},
}))
"""

STAGE_SITES = [
    ("stage-value-pre-commit", 2),
    ("stage-value-post-commit", 2),
    ("stage-pre-commit", 2),
    ("stage-post-commit", 2),
]


def _stage_runs(workdir, state="state"):
    counts = {}
    directory = workdir / state / "counts"
    if directory.is_dir():
        for path in directory.glob("*.runs"):
            counts[path.name.split(".")[0]] = len(
                path.read_text().splitlines()
            )
    return counts


class TestKillAtStageBoundaries:
    @pytest.mark.parametrize("site,hit", STAGE_SITES)
    def test_resume_to_clean_digest_without_reexecuting_committed(
        self, tmp_path, site, hit
    ):
        killed = run_driver(
            _CAMPAIGN_DRIVER, tmp_path, "run",
            env={"REPRO_STORE_FAULT": f"{site}:{hit}"},
        )
        assert killed.returncode == CHAOS_EXIT_CODE, killed.stderr
        assert not (tmp_path / "result-run.json").exists()
        runs_before = _stage_runs(tmp_path)

        resumed = run_driver(_CAMPAIGN_DRIVER, tmp_path, "resume")
        assert resumed.returncode == 0, resumed.stderr
        report = json.loads((tmp_path / "result-resume.json").read_text())
        assert all(s == "ok" for s in report["statuses"].values())
        runs_after = _stage_runs(tmp_path)
        # Stages the store committed before the kill replay, never
        # re-run; the interrupted stage legitimately runs again.
        for stage in report["resumed"]:
            assert runs_after[stage] == runs_before[stage] == 1

        clean = run_driver(_CAMPAIGN_DRIVER, tmp_path, "clean")
        assert clean.returncode == 0, clean.stderr
        baseline = json.loads((tmp_path / "result-clean.json").read_text())
        assert report["digest"] == baseline["digest"]

    def test_value_commits_before_outcome(self, tmp_path):
        """Killed between the stage value and its outcome: resume must
        re-execute the stage, never trust a value without an outcome
        row — and the reverse order (outcome without value) must be
        impossible by construction."""
        killed = run_driver(
            _CAMPAIGN_DRIVER, tmp_path, "run",
            env={"REPRO_STORE_FAULT": "stage-pre-commit:1"},
        )
        assert killed.returncode == CHAOS_EXIT_CODE
        import sqlite3

        conn = sqlite3.connect(
            tmp_path / "state" / "store.sqlite3"
        )
        try:
            values = conn.execute(
                "SELECT count(*) FROM stage_values"
            ).fetchone()[0]
            outcomes = conn.execute(
                "SELECT count(*) FROM stages WHERE status = 'ok'"
            ).fetchone()[0]
        finally:
            conn.close()
        # The first stage's value committed; its outcome did not.
        assert values == 1 and outcomes == 0

        resumed = run_driver(_CAMPAIGN_DRIVER, tmp_path, "resume")
        assert resumed.returncode == 0, resumed.stderr
        report = json.loads((tmp_path / "result-resume.json").read_text())
        # No outcome row -> nothing counts as completed -> nothing
        # replays as resumed; the stage re-executed.
        assert report["resumed"] == []
        assert _stage_runs(tmp_path)["a"] == 2
