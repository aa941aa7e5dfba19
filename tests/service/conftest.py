"""Shared fixtures and subprocess drivers for the service battery.

The kill-anywhere suite follows the ``tests/store`` crash-test
conventions: every crash happens in a fresh interpreter (``os._exit``
in-process would take pytest down), per-point execution counts are
fsync'd marker files, and byte-identity is asserted through
``canonical_bytes`` digests.

The sweep runner workers execute lives in a ``svc_runner.py`` module
written into each test's workdir (drivers put the workdir on
``sys.path``), so submissions can record it as the portable
``svc_runner:marker_runner`` reference and *any* worker process can
resolve it — exactly how a real deployment ships runner code to its
workers.
"""

import json
import os
import sqlite3
import time
from pathlib import Path

import pytest

from repro.store import ResultStore

from tests.store.conftest import run_driver  # noqa: F401 - re-export

REPO_ROOT = Path(__file__).resolve().parents[2]


def subprocess_pythonpath() -> str:
    """PYTHONPATH for spawned workers: src + repo root (for the
    ``tests.*`` runner modules) + whatever the session already had."""
    return os.pathsep.join(
        part
        for part in (
            str(REPO_ROOT / "src"),
            str(REPO_ROOT),
            os.environ.get("PYTHONPATH"),
        )
        if part
    )

#: Executions per in-process counting runner, keyed by grid x.
COUNTS = {}


def counting_runner(params, seed):
    """In-process runner whose executions are observable."""
    x = params["x"]
    COUNTS[x] = COUNTS.get(x, 0) + 1
    return {"y": x * 2.0, "n": x, "seed_mod": seed % 1000}


#: In-process worker-under-test, so a runner can ask it to drain.
CURRENT_WORKER = []


def stopping_runner(params, seed):
    """Requests a graceful drain from inside the first point."""
    if CURRENT_WORKER:
        CURRENT_WORKER[0].stop()
    return counting_runner(params, seed)


#: ``(now, lease_expires_at)`` as seen by :func:`lease_probe_runner`.
LEASES = []


def lease_probe_runner(params, seed):
    """Outlasts a short lease, then records the running submission's
    lease expiry as the worker's own store handle sees it."""
    time.sleep(0.4)
    store = CURRENT_WORKER[0].store
    [expires_at] = store.db.connection().execute(
        "SELECT lease_expires_at FROM submissions WHERE state = 'running'"
    ).fetchone()
    LEASES.append((store.db.now(), expires_at))
    return counting_runner(params, seed)


@pytest.fixture(autouse=True)
def _reset_runner_state():
    # Pytest loads this conftest under its own module name; the tests
    # (and the workers' resolve_runner) import `tests.service.conftest`
    # as a distinct module object.  Reset THAT copy's state — it is
    # the one the runners mutate.
    import importlib

    module = importlib.import_module("tests.service.conftest")
    module.COUNTS.clear()
    module.CURRENT_WORKER.clear()
    module.LEASES.clear()
    yield
    module.CURRENT_WORKER.clear()


@pytest.fixture
def store_dir(tmp_path):
    return tmp_path / "store"


@pytest.fixture
def store(store_dir):
    # Shared-writer mode: these tests run in-process Workers (and
    # subprocess pools) against the same open store, exactly like the
    # HTTP service does.
    result_store = ResultStore(
        store_dir, code_version="pinned", shared_writer=True
    )
    with result_store:
        yield result_store


#: The runner module drivers write next to the store: marker files
#: count executions (fsync'd, so counts survive a SIGKILL), and the
#: optional SVC_POINT_DELAY keeps a sweep alive long enough for the
#: lease heartbeat sites to be reached.
RUNNER_MODULE = """
import os
import time
from pathlib import Path


def marker_runner(params, seed):
    marks = Path(os.environ["SVC_MARKS"])
    marks.mkdir(parents=True, exist_ok=True)
    with open(marks / f"p{params['x']}.runs", "a") as handle:
        handle.write(f"{os.getpid()}\\n")
        handle.flush()
        os.fsync(handle.fileno())
    delay = float(os.environ.get("SVC_POINT_DELAY", "0") or 0)
    if delay:
        time.sleep(delay)
    return {
        "y": params["x"] * 2.0,
        "n": params["x"],
        "label": f"x{params['x']}",
    }
"""

#: Record one deferred 6-point submission (the queue seed).
SEED_DRIVER = """
import sys
from pathlib import Path

from repro.experiments.sweep import SweepSpec
from repro.store import ResultStore

workdir = Path(sys.argv[1])
spec = SweepSpec("svc-grid", axes={"x": list(range(6))})
with ResultStore(workdir / "store", code_version="pinned") as store:
    store.submit("svc", spec, "svc_runner:marker_runner")
"""

#: One leased worker draining the queue (fault env may be set).
WORKER_DRIVER = """
import json, os, sys
from pathlib import Path

workdir = Path(sys.argv[1])
sys.path.insert(0, str(workdir))
worker_id, lease, timeout = sys.argv[2], float(sys.argv[3]), float(sys.argv[4])
os.environ.setdefault("SVC_MARKS", str(workdir / "points"))

from repro.service import Worker

with Worker(
    workdir / "store",
    worker_id=worker_id,
    lease_seconds=lease,
    poll_seconds=0.05,
    shard_points=2,
    code_version="pinned",
) as worker:
    executed = worker.run(until_drained=True, timeout=timeout)
(workdir / f"worker-{worker_id}.json").write_text(
    json.dumps({"executed": executed})
)
"""

#: Post-mortem: final submission state + results digest (done only).
REPORT_DRIVER = """
import hashlib, json, sys
from pathlib import Path

from repro.experiments.sweep import canonical_bytes
from repro.store import ResultStore

workdir = Path(sys.argv[1])
tag = sys.argv[2]
with ResultStore(workdir / "store", code_version="pinned") as store:
    record = store.submission(1)
    report = {
        "state": record["state"],
        "ok_points": record["ok_points"],
        "failed_points": record["failed_points"],
        "claimed_by": record["claimed_by"],
        "attempts": record["attempts"],
        "verify": store.verify(),
    }
    if record["state"] == "done":
        headers, rows = store.results_rows(1)
        report["digest"] = hashlib.sha256(
            canonical_bytes([headers, rows])
        ).hexdigest()
(workdir / f"report-{tag}.json").write_text(json.dumps(report))
"""

#: The byte-identity baseline: the same submission run serially
#: down the `store run` path (claim it by id, one worker, in-process
#: points) in a clean store.
SERIAL_DRIVER = """
import hashlib, json, os, sys
from pathlib import Path

workdir = Path(sys.argv[1])
sys.path.insert(0, str(workdir))
os.environ["SVC_MARKS"] = str(workdir / "serial-points")

from repro.experiments.sweep import SweepSpec, canonical_bytes
from repro.service.workers import Worker

spec = SweepSpec("svc-grid", axes={"x": list(range(6))})
with Worker(
    workdir / "clean-store", code_version="pinned", point_workers=1
) as worker:
    sid = worker.store.submit("svc", spec, "svc_runner:marker_runner")
    assert worker.execute(worker.claim(sid))
    headers, rows = worker.store.results_rows(sid)
(workdir / "serial.json").write_text(json.dumps({
    "digest": hashlib.sha256(
        canonical_bytes([headers, rows])
    ).hexdigest(),
}))
"""


def write_runner_module(workdir) -> None:
    (Path(workdir) / "svc_runner.py").write_text(
        RUNNER_MODULE, encoding="utf-8"
    )


def marker_counts(workdir):
    counts = {}
    points = Path(workdir) / "points"
    if points.is_dir():
        for path in points.glob("p*.runs"):
            x = int(path.stem[1:].split(".")[0])
            counts[x] = len(path.read_text().splitlines())
    return counts


def stored_xs(workdir):
    """Grid positions whose values committed, read straight off disk."""
    conn = sqlite3.connect(Path(workdir) / "store" / "store.sqlite3")
    try:
        keys = [
            key for (key,) in conn.execute("SELECT point_key FROM points")
        ]
    finally:
        conn.close()
    return {json.loads(key.split(":rep")[0])["x"] for key in keys}


def read_json(workdir, name):
    return json.loads((Path(workdir) / name).read_text())
