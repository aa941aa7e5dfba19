"""Campaign crash-resume: SIGKILL at every stage boundary, both backends.

The acceptance contract of the campaign subsystem: chaos-driven
``die`` at *any* stage boundary (``os._exit`` in the orchestrator — a
SIGKILL-equivalent whole-campaign crash), followed by
``campaign --resume``, yields a final campaign result byte-identical
to an uninterrupted run with **zero completed stages re-executed** —
on the serial and the process-pool backend alike.  A second driver
kills the orchestrator *inside* a sweep stage to prove resume
re-enters half-done stages through the sweep's own point-level
journal.

Each scenario runs in a fresh interpreter via a driver script (the
crash must take down a real process, not a mocked one).  The killed
driver's pool workers must not outlive it.
"""

import json
import os
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.resilience import CHAOS_EXIT_CODE

STAGES = ("a", "b", "c", "d")
BACKENDS = ("serial", "process")

#: Driver: a diamond campaign of file-instrumented trivial stages.
#: argv: workdir backend mode [kill_stage]
#: mode "kill" runs with chaos die at kill_stage's boundary and is
#: expected to hard-exit with CHAOS_EXIT_CODE; mode "resume" continues
#: chaos-free; mode "clean" is the uninterrupted baseline.
_DIAMOND_DRIVER = """
import json, os, sys
from pathlib import Path

from repro.campaigns import CampaignEngine, CampaignSpec, StageSpec, STEPS
from repro.experiments.resilience import ChaosSpec

workdir = Path(sys.argv[1])
backend = sys.argv[2]
mode = sys.argv[3]  # "kill", "resume", or "clean"
kill_stage = sys.argv[4] if len(sys.argv) > 4 else None


@STEPS.register("d.add")
def _add(ctx):
    counts = Path(ctx.state_dir) / "counts"
    counts.mkdir(exist_ok=True)
    with open(counts / f"{ctx.stage}.runs", "a") as handle:
        handle.write(f"{os.getpid()}\\n")
        handle.flush()
        os.fsync(handle.fileno())
    return ctx.param("x", 0) + sum(
        ctx.upstream[dep] for dep in sorted(ctx.upstream)
    ) + ctx.seed % 97


spec = CampaignSpec(name="crash-diamond", seed=5, stages=(
    StageSpec(name="a", step="d.add", params={"x": 1}),
    StageSpec(name="b", step="d.add", params={"x": 2}, after=("a",)),
    StageSpec(name="c", step="d.add", params={"x": 3}, after=("a",)),
    StageSpec(name="d", step="d.add", params={"x": 4}, after=("b", "c")),
))
chaos = (
    ChaosSpec(stage_plan={kill_stage: ("die",)}) if mode == "kill" else None
)
state = workdir / "state" if mode != "clean" else workdir / "clean"
engine = CampaignEngine(
    spec, state, backend=backend, workers=2, chaos=chaos,
    code_version="pinned",
)
result = engine.run(resume=(mode == "resume"))
(workdir / f"result-{mode}.json").write_text(json.dumps({
    "digest": result.canonical_digest(),
    "resumed": sorted(result.resumed_stages()),
    "statuses": {n: result.outcomes[n].status for n in result.order},
}))
"""


def _driver_argv(driver, workdir, backend, mode, kill_stage=None):
    argv = [sys.executable, str(driver), str(workdir), backend, mode]
    if kill_stage is not None:
        argv.append(kill_stage)
    return argv


def _run_driver(driver, workdir, backend, mode, kill_stage=None):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    argv = _driver_argv(driver, workdir, backend, mode, kill_stage)
    return subprocess.run(argv, env=env, timeout=120)


def _live_processes(argv):
    """PIDs running exactly ``argv``: a driver and the pool workers it
    forked (zombies have an empty command line, so they never match)."""
    wanted = ("\0".join(argv) + "\0").encode()
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            if (entry / "cmdline").read_bytes() == wanted:
                pids.append(int(entry.name))
        except OSError:
            continue  # exited while we looked
    return pids


def _journaled_ok(workdir, state="state"):
    """Stage names the campaign's store records as completed ok."""
    conn = sqlite3.connect(Path(workdir) / state / "store.sqlite3")
    try:
        return {
            name for (name,) in conn.execute(
                "SELECT name FROM stages WHERE status = 'ok'"
            )
        }
    finally:
        conn.close()


def _counts(workdir, state="state"):
    counts = {}
    directory = Path(workdir) / state / "counts"
    if directory.is_dir():
        for path in directory.glob("*.runs"):
            counts[path.name.split(".")[0]] = len(
                path.read_text().splitlines()
            )
    return counts


class TestDieAtEveryStageBoundary:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kill_stage", STAGES)
    def test_resume_after_stage_boundary_kill(
        self, tmp_path, backend, kill_stage
    ):
        driver = tmp_path / "driver.py"
        driver.write_text(_DIAMOND_DRIVER)

        killed = _run_driver(
            driver, tmp_path, backend, "kill", kill_stage
        )
        # The chaos die is an os._exit at the stage boundary — the
        # whole campaign dies with the chaos exit code, no result.
        assert killed.returncode == CHAOS_EXIT_CODE
        assert not (tmp_path / "result-kill.json").exists()
        if Path("/proc").is_dir():
            # Its pool workers notice the dead parent and exit too.
            argv = _driver_argv(driver, tmp_path, backend, "kill", kill_stage)
            deadline = time.monotonic() + 5.0
            while _live_processes(argv) and time.monotonic() < deadline:
                time.sleep(0.1)
            assert _live_processes(argv) == []
        runs_before = _counts(tmp_path)
        assert runs_before.get(kill_stage, 0) == 0
        # What the journal promised before the kill is the resume
        # contract: *completed* (journaled ok) stages never re-run.
        # A stage merely in flight when the orchestrator died (pool
        # backend) legitimately re-executes.
        journaled = _journaled_ok(tmp_path)
        assert kill_stage not in journaled

        resumed = _run_driver(driver, tmp_path, backend, "resume")
        assert resumed.returncode == 0
        report = json.loads(
            (tmp_path / "result-resume.json").read_text()
        )
        assert all(
            status == "ok" for status in report["statuses"].values()
        )
        runs_after = _counts(tmp_path)
        for stage in journaled:
            assert runs_after[stage] == runs_before[stage] == 1
        assert set(report["resumed"]) == journaled

        clean = _run_driver(driver, tmp_path, backend, "clean")
        assert clean.returncode == 0
        baseline = json.loads(
            (tmp_path / "result-clean.json").read_text()
        )
        assert report["digest"] == baseline["digest"]

    def test_backends_agree_byte_for_byte(self, tmp_path):
        driver = tmp_path / "driver.py"
        driver.write_text(_DIAMOND_DRIVER)
        digests = set()
        for backend in BACKENDS:
            workdir = tmp_path / backend
            workdir.mkdir()
            assert (
                _run_driver(driver, workdir, backend, "clean").returncode
                == 0
            )
            digests.add(
                json.loads(
                    (workdir / "result-clean.json").read_text()
                )["digest"]
            )
        assert len(digests) == 1


#: Driver for the mid-sweep kill: the campaign's middle stage is a
#: real journaled sweep whose runner SIGKILLs its own process at one
#: point (sentinel-gated), taking the serial orchestrator down mid-
#: stage.  Resume must re-enter the sweep through its point journal.
_MIDSWEEP_DRIVER = """
import json, os, signal, sys
from pathlib import Path

from repro.campaigns import CampaignEngine, CampaignSpec, StageSpec, STEPS
from repro.experiments.resilience import FailurePolicy
from repro.experiments.sweep import SweepSpec, run_sweep, runner_name
from repro.store import ResultStore

workdir = Path(sys.argv[1])
mode = sys.argv[3]  # "kill" or "resume" (argv[2] = backend, unused)


def runner(params, seed):
    marks = workdir / "points"
    marks.mkdir(exist_ok=True)
    with open(marks / f"p{params['i']}.runs", "a") as handle:
        handle.write(f"{os.getpid()}\\n")
        handle.flush()
        os.fsync(handle.fileno())
    sentinel = workdir / "kill.sentinel"
    if params["i"] == 3 and sentinel.exists():
        sentinel.unlink()
        os.kill(os.getpid(), signal.SIGKILL)
    return params["i"] * 10 + seed % 7


@STEPS.register("d.sweep")
def _sweep(ctx):
    store = ResultStore(
        Path(ctx.state_dir) / "sweeps" / ctx.stage, code_version="pinned"
    )
    spec = SweepSpec("mid-sweep", axes={"i": list(range(6))})
    result = run_sweep(
        spec,
        runner,
        workers=1,
        cache=store.sweep_cache(),
        policy=FailurePolicy(on_error="collect"),
        journal=store.run_journal(spec.experiment_id, runner_name(runner)),
        resume=True,
    )
    store.close()
    return {"values": result.values,
            "resumed": [o.resumed for o in result.outcomes]}


@STEPS.register("d.const")
def _const(ctx):
    counts = Path(ctx.state_dir) / "counts"
    counts.mkdir(exist_ok=True)
    with open(counts / f"{ctx.stage}.runs", "a") as handle:
        handle.write("x\\n")
    return ctx.param("x", 0)


spec = CampaignSpec(name="mid-sweep", seed=2, stages=(
    StageSpec(name="pre", step="d.const", params={"x": 7}),
    StageSpec(name="grid", step="d.sweep", after=("pre",)),
    StageSpec(name="post", step="d.const", params={"x": 9},
              after=("grid",)),
))
if mode == "kill":
    (workdir / "kill.sentinel").touch()
engine = CampaignEngine(
    spec, workdir / "state", code_version="pinned"
)
result = engine.run(resume=(mode == "resume"))
(workdir / f"result-{mode}.json").write_text(json.dumps({
    "digest": result.canonical_digest(),
    "resumed": sorted(result.resumed_stages()),
    "grid": result.values["grid"],
}))
"""


class TestMidSweepKill:
    def test_resume_reenters_sweep_at_point_granularity(self, tmp_path):
        driver = tmp_path / "driver.py"
        driver.write_text(_MIDSWEEP_DRIVER)

        killed = _run_driver(driver, tmp_path, "serial", "kill")
        assert killed.returncode == -9 or killed.returncode == 137
        assert not (tmp_path / "result-kill.json").exists()
        points_dir = tmp_path / "points"
        runs_before = {
            path.name: len(path.read_text().splitlines())
            for path in points_dir.glob("*.runs")
        }
        # Points 0..3 started before the kill at point 3.
        assert runs_before.get("p3.runs") == 1
        assert runs_before.get("p0.runs") == 1

        resumed = _run_driver(driver, tmp_path, "serial", "resume")
        assert resumed.returncode == 0
        report = json.loads(
            (tmp_path / "result-resume.json").read_text()
        )
        runs_after = {
            path.name: len(path.read_text().splitlines())
            for path in points_dir.glob("*.runs")
        }
        # Pre-kill points re-entered through the sweep's own journal:
        # completed points 0-2 never re-ran; only the killed point 3
        # and the never-started tail executed on resume.
        for name in ("p0.runs", "p1.runs", "p2.runs"):
            assert runs_after[name] == 1
        assert runs_after["p3.runs"] == 2
        # The completed sweep stage carries every point's value, and
        # the completed `pre` stage was replayed, not re-executed.
        assert report["grid"]["values"] == [
            i * 10 + _point_seed("mid-sweep", i) % 7 for i in range(6)
        ]
        assert "pre" in report["resumed"]
        pre_runs = (
            (tmp_path / "state" / "counts" / "pre.runs")
            .read_text()
            .splitlines()
        )
        assert len(pre_runs) == 1


def _point_seed(experiment_id: str, i: int) -> int:
    from repro.experiments.sweep import SweepSpec

    spec = SweepSpec(experiment_id, axes={"i": list(range(6))})
    points = spec.points()
    return points[i].seed
