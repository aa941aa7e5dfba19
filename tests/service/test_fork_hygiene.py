"""Supervised workers are forks of the serving process.

A fork starts with everything its parent holds, so each child must
shed what belongs to ``serve``: the listening socket, the store
handles (dropped by the store's fork guard), the parent's identity and
its signal handlers.  The supervisor must replace a crashed worker on
its own, and no worker may outlive a SIGKILL'd ``serve``.

In-process tests fork this interpreter (the runners they name live in
``tests.service.conftest``); the subprocess tests drive the real
``repro-hpcqc serve`` and read process state from ``/proc``.
"""

import http.client
import json
import os
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.sweep import runner_name
from repro.service import Worker, WorkerSupervisor, make_server
from repro.store import ResultStore

from tests.service.conftest import counting_runner, subprocess_pythonpath
from tests.store.conftest import grid_spec

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/fd").is_dir(), reason="reads /proc"
)

#: A two-point preset sweep, small enough to simulate in a test.
PRESET_BODY = {
    "name": "fork-scan",
    "preset": "baseline-32",
    "axes": {"workload.background_rho": [0.5, 0.85]},
    "horizon": 600.0,
}


def request(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        payload = json.dumps(body).encode() if body is not None else None
        conn.request(method, path, body=payload)
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode())
    finally:
        conn.close()


def children(pid):
    """Live child pids of ``pid`` (zombies excluded)."""
    found = set()
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if int(ppid) == pid and state != "Z":
            found.add(int(entry.name))
    return found


def fd_links(pid):
    links = []
    fd_dir = Path(f"/proc/{pid}/fd")
    for fd in fd_dir.iterdir():
        try:
            links.append(os.readlink(fd))
        except OSError:
            continue
    return links


def alive(pid):
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def wait_for(predicate, timeout, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class _Serve:
    """``repro-hpcqc serve --workers 2`` in a subprocess; stdout is
    collected line by line."""

    def __init__(self, store_dir):
        env = dict(os.environ, PYTHONPATH=subprocess_pythonpath())
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--store", str(store_dir), "--port", "0",
                "--workers", "2", "--poll-interval", "0.05",
            ],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        self.output = b""
        line = self.wait_line("listening on")
        self.port = int(line.rsplit(":", 1)[1].strip())

    @property
    def lines(self):
        return self.output.decode().splitlines()

    def read(self):
        fd = self.proc.stdout.fileno()
        while select.select([fd], [], [], 0)[0]:
            chunk = os.read(fd, 65536)
            if not chunk:
                break
            self.output += chunk

    def wait_line(self, needle, count=1, timeout=30):
        def found():
            self.read()
            return [line for line in self.lines if needle in line]

        assert wait_for(lambda: len(found()) >= count, timeout), (
            f"no {count} x {needle!r} in {self.lines!r}"
        )
        return found()[count - 1]

    def worker_ids(self):
        self.read()
        return re.findall(r"\[worker\] (\S+) draining", self.output.decode())

    def close(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:  # pragma: no cover - cleanup
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


@pytest.fixture
def serve(store_dir):
    server = _Serve(store_dir)
    try:
        yield server
    finally:
        server.close()


@pytest.fixture
def live_server(store_dir, store):
    """An in-process server whose supervisor forks this interpreter;
    ``serve_forever`` runs on a thread, as restarts require."""
    supervisor = WorkerSupervisor(store_dir, workers=2, poll_seconds=0.05)
    server = make_server(
        store_dir, code_version="pinned", supervisor=supervisor
    )
    supervisor.start()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        thread.join(timeout=5)
        supervisor.drain(timeout=15)
        server.server_close()
        server.service.close()


class TestChildHygiene:
    def test_workers_do_not_hold_the_listening_socket(self, serve):
        serve.wait_line("draining", count=2)
        [listener] = [
            link for link in fd_links(serve.proc.pid)
            if link.startswith("socket:")
        ]
        workers = children(serve.proc.pid)
        assert len(workers) == 2
        for pid in workers:
            assert listener not in fd_links(pid)

    def test_each_worker_id_carries_its_own_pid(self, serve):
        serve.wait_line("draining", count=2)
        pids = {int(wid.split(":")[1]) for wid in serve.worker_ids()}
        assert pids == children(serve.proc.pid)
        assert serve.proc.pid not in pids

    def test_child_drops_the_parents_store_handles(self, store_dir, store):
        # The parent holds a live connection and the shared lock.
        first = store.submit(
            "first", grid_spec(3, experiment_id="fork-first"),
            runner_name(counting_runner),
        )
        assert store.db.holds_writer_lock
        supervisor = WorkerSupervisor(store_dir, workers=1, poll_seconds=0.05)
        supervisor.start()
        try:
            assert wait_for(
                lambda: store.submission(first)["state"] == "done", 30
            )
            # Its own lock handle only; the inherited one was closed.
            lock = str(store.db.lock_path)
            links = fd_links(supervisor._procs[0].pid)
            assert links.count(lock) == 1
        finally:
            supervisor.drain(timeout=15)
        assert supervisor._procs[0].exitcode == 0
        second = store.submit(
            "second", grid_spec(2, experiment_id="fork-second"),
            runner_name(counting_runner),
        )
        with Worker(store_dir, code_version="pinned") as worker:
            assert worker.execute(worker.claim(second))
        assert store.submission(second)["state"] == "done"
        assert store.verify()["ok"]

    def test_sigterm_right_after_start_drains_the_worker(
        self, store_dir, tmp_path
    ):
        # Stands in for serve's drain handler: a child must never run it.
        marker = tmp_path / "parent-handler-ran"

        def parent_handler(signum, frame):
            marker.write_text(str(os.getpid()))

        previous = signal.signal(signal.SIGTERM, parent_handler)
        supervisor = WorkerSupervisor(store_dir, workers=1, poll_seconds=0.05)
        try:
            supervisor.start()
            proc = supervisor._procs[0]
            os.kill(proc.pid, signal.SIGTERM)
            proc.join(timeout=15)
        finally:
            supervisor.drain(timeout=15)
            signal.signal(signal.SIGTERM, previous)
        assert proc.exitcode == 0
        assert not marker.exists()

    def test_results_match_store_run_in_a_clean_store(
        self, live_server, tmp_path
    ):
        port = live_server.server_address[1]
        status, created = request(port, "POST", "/submissions", PRESET_BODY)
        assert status == 201, created
        sid = created["id"]

        def done():
            return request(port, "GET", f"/submissions/{sid}")[1]["state"]

        assert wait_for(lambda: done() in ("done", "failed"), 120, 0.1)
        assert done() == "done"
        status, served = request(port, "GET", f"/submissions/{sid}/results")
        assert status == 200

        clean = tmp_path / "clean"
        assert main([
            "store", "submit", str(clean), "--preset", "baseline-32",
            "--axis", "workload.background_rho=0.5,0.85",
            "--horizon", "600", "--name", "fork-scan", "--defer",
        ]) == 0
        assert main(["store", "run", str(clean), "1"]) == 0
        with ResultStore(clean, code_version="pinned") as store:
            headers, rows = store.results_rows(1)
        local = json.loads(json.dumps({"headers": headers, "rows": rows}))
        assert json.dumps(
            [served["headers"], served["rows"]], sort_keys=True
        ) == json.dumps([local["headers"], local["rows"]], sort_keys=True)


class TestSupervision:
    def test_crashed_worker_is_replaced_without_a_request(
        self, live_server
    ):
        supervisor = live_server.service.supervisor
        assert wait_for(lambda: supervisor.alive_count() == 2, 10)
        victim = supervisor._procs[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=5)
        assert wait_for(
            lambda: supervisor.alive_count() == 2
            and supervisor._procs[0] is not victim,
            2.0,
        )
        assert supervisor.restarts == 1

    def test_workers_and_port_die_with_a_killed_serve(self, serve):
        serve.wait_line("draining", count=2)
        workers = children(serve.proc.pid)
        assert len(workers) == 2
        serve.proc.kill()
        serve.proc.wait(timeout=10)
        assert wait_for(
            lambda: not any(alive(pid) for pid in workers), 2.0
        ), [pid for pid in workers if alive(pid)]
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", serve.port), timeout=5)
