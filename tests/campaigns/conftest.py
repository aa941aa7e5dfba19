"""Shared fixtures and instrumented steps for the campaign suites.

The test steps register once at import (the global registry rejects
duplicates) and are deliberately file-instrumented: each execution
drops ``<state>/counts/<stage>.started`` / ``.completed`` marker lines
so crash/resume tests can assert *exact* execution counts without
trusting in-process state that a SIGKILL would lose.
"""

import multiprocessing
import os
from pathlib import Path

import pytest

from repro.campaigns import STEPS, CampaignSpec, StageSpec


def _counts_dir(ctx) -> Path:
    path = Path(ctx.state_dir) / "counts"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _mark(ctx, kind: str) -> None:
    path = _counts_dir(ctx) / f"{ctx.stage}.{kind}"
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(f"{os.getpid()}\n")
        handle.flush()
        os.fsync(handle.fileno())


def marker_count(state_dir, stage: str, kind: str) -> int:
    """How many times one stage started/completed, across processes."""
    path = Path(state_dir) / "counts" / f"{stage}.{kind}"
    try:
        return len(path.read_text(encoding="utf-8").splitlines())
    except OSError:
        return 0


if "t.add" not in STEPS:

    @STEPS.register("t.add")
    def _t_add(ctx):
        """Deterministic value: params x + sum of upstream values."""
        _mark(ctx, "started")
        value = ctx.param("x", 0) + sum(
            ctx.upstream[dep] for dep in sorted(ctx.upstream)
        )
        _mark(ctx, "completed")
        return value

    @STEPS.register("t.seeded")
    def _t_seeded(ctx):
        """Value derived from the stage seed (determinism probes)."""
        _mark(ctx, "started")
        value = {"stage": ctx.stage, "seed": ctx.seed % 1000}
        _mark(ctx, "completed")
        return value

    @STEPS.register("t.flaky")
    def _t_flaky(ctx):
        """Fails until ``fail_times`` prior attempts are on record."""
        _mark(ctx, "started")
        if marker_count(ctx.state_dir, ctx.stage, "started") <= int(
            ctx.param("fail_times", 0)
        ):
            raise RuntimeError(f"flaky {ctx.stage} not warmed up yet")
        _mark(ctx, "completed")
        return ctx.param("x", 0)

    @STEPS.register("t.fail")
    def _t_fail(ctx):
        """Always fails."""
        _mark(ctx, "started")
        raise RuntimeError(f"stage {ctx.stage} always fails")

    @STEPS.register("t.sleep")
    def _t_sleep(ctx):
        """Sleeps ``seconds`` (timeout probes)."""
        import time

        _mark(ctx, "started")
        time.sleep(float(ctx.param("seconds", 10.0)))
        _mark(ctx, "completed")
        return "slept"

    @STEPS.register("t.interrupt_once")
    def _t_interrupt_once(ctx):
        """Raises KeyboardInterrupt while a sentinel file exists.

        The sentinel is consumed first, so the resumed run sails
        through — an in-process stand-in for a kill at this stage.
        """
        _mark(ctx, "started")
        sentinel = Path(ctx.state_dir) / f"{ctx.stage}.sentinel"
        if sentinel.exists():
            sentinel.unlink()
            raise KeyboardInterrupt(f"simulated kill at {ctx.stage}")
        _mark(ctx, "completed")
        return ctx.param("x", 0)

    @STEPS.register("t.die_once")
    def _t_die_once(ctx):
        """Kills its pool worker while a ``<stage>.die`` sentinel exists.

        The sentinel is consumed first, so a re-run sails through.  In
        the orchestrating process (serial backend) it never dies.
        """
        _mark(ctx, "started")
        sentinel = Path(ctx.state_dir) / f"{ctx.stage}.die"
        if sentinel.exists() and multiprocessing.parent_process():
            sentinel.unlink()
            os._exit(1)
        _mark(ctx, "completed")
        return ctx.param("x", 0)

    @STEPS.register("t.die_always")
    def _t_die_always(ctx):
        """Kills its pool worker on every attempt (a repeat killer).

        In the orchestrating process (serial backend) it never dies.
        """
        _mark(ctx, "started")
        if multiprocessing.parent_process():
            os._exit(1)
        _mark(ctx, "completed")
        return ctx.param("x", 0)


def diamond_campaign(name="diamond", seed=3, **stage_overrides):
    """a -> (b, c) -> d with every stage on the instrumented adder.

    ``stage_overrides`` maps a stage name to extra StageSpec fields
    (e.g. ``b={"step": "t.fail", "on_error": "collect"}``).
    """
    base = {
        "a": dict(step="t.add", params={"x": 1}),
        "b": dict(step="t.add", params={"x": 2}, after=("a",)),
        "c": dict(step="t.add", params={"x": 3}, after=("a",)),
        "d": dict(step="t.add", params={"x": 4}, after=("b", "c")),
    }
    for stage, overrides in stage_overrides.items():
        base[stage].update(overrides)
    return CampaignSpec(
        name=name,
        seed=seed,
        stages=tuple(
            StageSpec(name=stage, **fields)
            for stage, fields in base.items()
        ),
    )


@pytest.fixture
def diamond():
    return diamond_campaign()
