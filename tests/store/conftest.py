"""Shared fixtures and runners for the result-store battery.

Runners live at module scope so the process-pool backend can pickle
them; every runner is deterministic in ``(params, seed)`` so the
suites can compare store-backed output against fresh execution byte
for byte.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.sweep import SweepSpec
from repro.store import ResultStore


def scalar_runner(params, seed):
    """Pure scalar metrics: fully columnar, no residual payload."""
    x = params["x"]
    return {
        "y": x * 2.0,
        "n": x,
        "even": x % 2 == 0,
        "maybe": None if x == 1 else x / 3.0,
        "seed_mod": seed % 1000,
    }


def mixed_runner(params, seed):
    """Scalar metrics plus string/nested members (residual payload)."""
    x = params["x"]
    return {
        "y": x * 1.5,
        "count": x + 1,
        "label": f"case-{x}",
        "nested": {"inner": x, "tag": "t"},
        "seed_mod": seed % 1000,
    }


def opaque_runner(params, seed):
    """Not a metric dict at all: stays a pickled inline payload."""
    return ("tuple", params["x"], seed % 7)


def grid_spec(n=6, experiment_id="store-grid", **kwargs):
    return SweepSpec(experiment_id, axes={"x": list(range(n))}, **kwargs)


@pytest.fixture
def store_dir(tmp_path):
    return tmp_path / "store"


@pytest.fixture
def store(store_dir):
    result_store = ResultStore(store_dir, code_version="pinned")
    with result_store:
        yield result_store


def run_driver(script, workdir, *argv, env=None, timeout=120):
    """Run an inline driver script in a fresh interpreter.

    Crash tests need a real process to die — ``os._exit`` in-process
    would take pytest with it.  Returns the ``CompletedProcess``.
    """
    workdir = Path(workdir)
    driver = workdir / "driver.py"
    driver.write_text(script, encoding="utf-8")
    merged = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    merged["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, merged.get("PYTHONPATH")) if p
    )
    merged.pop("REPRO_STORE_FAULT", None)
    if env:
        merged.update(env)
    return subprocess.run(
        [sys.executable, str(driver), str(workdir), *map(str, argv)],
        env=merged,
        timeout=timeout,
        capture_output=True,
        text=True,
    )
