"""The HTTP campaign API on a live ephemeral-port server.

Every test talks real HTTP (``http.client`` over a loopback socket) to
a :class:`~repro.service.http.ServiceServer` running in a thread —
routing, status-code mapping, JSON shapes, and concurrent submitters
all exercised through the wire, not by calling payload methods
directly.  The final class covers the subprocess reality: ``repro-hpcqc
serve`` taking a SIGTERM mid-request and still draining cleanly.
"""

import http.client
import json
import os
import select
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.cli import main
from repro.experiments.sweep import SweepSpec, runner_name
from repro.service import Worker, make_server
from repro.service.http import MAX_BODY_BYTES
from repro.store import ResultStore

from tests.service.conftest import (
    COUNTS,
    counting_runner,
    subprocess_pythonpath,
)
from tests.store.conftest import grid_spec


def request(port, method, path, body=None):
    """One wire round-trip; returns (status, decoded JSON body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    try:
        payload = (
            json.dumps(body).encode("utf-8") if body is not None else None
        )
        conn.request(
            method, path, body=payload,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode())
    finally:
        conn.close()


def raw_spec_body(n=3, name="api-sub"):
    return {
        "name": name,
        "spec": grid_spec(n, experiment_id=f"http-{name}").to_dict(),
        "runner": runner_name(counting_runner),
    }


@pytest.fixture
def server(store_dir):
    server = make_server(store_dir, code_version="pinned")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        server.service.close()
        thread.join(timeout=5)


@pytest.fixture
def port(server):
    return server.server_address[1]


class TestHealthAndQueue:
    def test_healthz_reports_ok_and_empty_queue(self, port):
        status, body = request(port, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["version"]
        assert body["queue"]["depth"] == 0

    def test_queue_endpoint_counts_submissions(self, port):
        request(port, "POST", "/submissions", raw_spec_body())
        status, body = request(port, "GET", "/queue")
        assert status == 200
        assert body["pending"] == 1
        assert body["depth"] == 1
        assert body["stale_leases"] == 0

    def test_keep_alive_responses_do_not_stall(self, port):
        # Headers and body leave as two segments; with Nagle on, the
        # client's delayed ACK would hold every body back ~40 ms.
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            start = time.perf_counter()
            for _ in range(20):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                json.loads(response.read().decode())
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        assert elapsed < 0.4


class TestSubmit:
    def test_raw_spec_submission_is_created(self, port):
        status, body = request(
            port, "POST", "/submissions", raw_spec_body(n=4)
        )
        assert status == 201
        assert body["id"] == 1
        assert body["state"] == "pending"
        assert body["points"] == 4
        assert body["runner"] == runner_name(counting_runner)
        assert "spec_json" not in body  # specs stay server-side

    def test_preset_submission_sweeps_a_scenario(self, port):
        status, body = request(port, "POST", "/submissions", {
            "preset": "baseline-32",
            "axes": {"workload.background_rho": [0.25, 0.5]},
        })
        assert status == 201
        assert body["points"] == 2
        assert body["name"] == "baseline-32"
        assert body["runner"].endswith(":run_scenario_point")

    @pytest.mark.parametrize("body,fragment", [
        ({}, "either 'preset'"),
        ({"spec": {"nonsense": 1}}, "'runner'"),
        ({"spec": {"nonsense": 1}, "runner": "m:f"}, "bad 'spec'"),
        ({"preset": "baseline-32"}, "'axes'"),
        ({"preset": "baseline-32", "axes": {}}, "'axes'"),
        ({"preset": "baseline-32", "axes": {"a.b": []}},
         "non-empty list"),
        ({"preset": "no-such-preset", "axes": {"a.b": [1]}},
         "unknown scenario"),
        ({"name": 7, "spec": {}, "runner": "m:f"}, "'name'"),
        ({"preset": "baseline-32", "axes": {"seed": [1]},
          "horizon": True}, "horizon must be"),
        ({"preset": "baseline-32", "axes": {"seed": [1]},
          "horizon": "600"}, "horizon must be"),
        ({"preset": "baseline-32", "axes": {"seed": [1]},
          "horizon": -5}, "horizon must be"),
        ({"preset": "baseline-32", "axes": {"seed": [1]},
          "horizon": 0}, "horizon must be"),
        ({"preset": "baseline-32", "axes": {"seed": [1]},
          "horizon": float("nan")}, "horizon must be"),
        ({"preset": "baseline-32", "axes": {"seed": [1]},
          "horizon": float("inf")}, "horizon must be"),
    ])
    def test_malformed_bodies_get_400(self, port, body, fragment):
        status, response = request(port, "POST", "/submissions", body)
        assert status == 400
        assert fragment in response["error"]

    def test_whole_number_horizon_names_the_cli_points(
        self, port, store_dir
    ):
        # JSON 600 and ``store submit --horizon 600`` (a float) must
        # give the same grid: same digest, same point seeds.
        status, body = request(port, "POST", "/submissions", {
            "preset": "baseline-32",
            "axes": {"workload.background_rho": [0.25, 0.5]},
            "horizon": 600,
        })
        assert status == 201
        assert main([
            "store", "submit", str(store_dir), "--preset", "baseline-32",
            "--axis", "workload.background_rho=0.25,0.5",
            "--horizon", "600", "--defer",
        ]) == 0
        with ResultStore(store_dir, code_version="pinned") as store:
            http_spec, cli_spec = (
                SweepSpec.from_dict(
                    json.loads(store.submission(sid)["spec_json"])
                )
                for sid in (body["id"], body["id"] + 1)
            )
        assert http_spec.digest == cli_spec.digest
        assert [p.seed for p in http_spec.points()] == [
            p.seed for p in cli_spec.points()
        ]

    def test_non_json_body_gets_400(self, port):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            conn.request("POST", "/submissions", body=b"not json {")
            response = conn.getresponse()
            assert response.status == 400
            assert "not valid JSON" in json.loads(response.read())["error"]
        finally:
            conn.close()

    def test_oversized_body_is_refused_unread(self, port):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            conn.putrequest("POST", "/submissions")
            conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            conn.endheaders()
            response = conn.getresponse()
            assert response.status == 400
            assert "over" in json.loads(response.read())["error"]
        finally:
            conn.close()

    def test_concurrent_submitters_all_land(self, port):
        results, errors = [], []

        def post(index):
            try:
                results.append(request(
                    port, "POST", "/submissions",
                    raw_spec_body(name=f"racer-{index}"),
                ))
            except Exception as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        threads = [
            threading.Thread(target=post, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert [status for status, _ in results] == [201] * 8
        assert {body["id"] for _, body in results} == set(range(1, 9))
        _, rows = request(port, "GET", "/submissions")
        assert len(rows) == 8


class TestRoutes:
    def test_unknown_routes_and_ids_get_404(self, port):
        assert request(port, "GET", "/nope")[0] == 404
        assert request(port, "GET", "/submissions/999")[0] == 404
        assert request(port, "GET", "/submissions/abc")[0] == 404
        assert request(port, "GET", "/submissions/1/nope")[0] == 404
        assert request(port, "POST", "/healthz", {})[0] == 404

    def test_write_methods_are_405(self, port):
        assert request(port, "PUT", "/submissions", {})[0] == 405
        assert request(port, "DELETE", "/submissions/1")[0] == 405

    def test_results_before_done_is_409(self, port):
        request(port, "POST", "/submissions", raw_spec_body())
        status, body = request(port, "GET", "/submissions/1/results")
        assert status == 409
        assert body["state"] == "pending"


class TestEndToEnd:
    def test_submit_work_fetch_results_over_the_wire(
        self, port, store_dir
    ):
        status, created = request(
            port, "POST", "/submissions", raw_spec_body(n=4)
        )
        assert status == 201
        with Worker(
            store_dir, poll_seconds=0.01, code_version="pinned"
        ) as worker:
            assert worker.run(until_drained=True, timeout=30) == 1
        assert COUNTS == {0: 1, 1: 1, 2: 1, 3: 1}

        status, record = request(
            port, "GET", f"/submissions/{created['id']}"
        )
        assert status == 200
        assert record["state"] == "done"
        assert record["ok_points"] == 4

        status, results = request(
            port, "GET", f"/submissions/{created['id']}/results?metrics=y"
        )
        assert status == 200
        assert results["headers"] == ["index", "params", "y"]
        assert [row[2] for row in results["rows"]] == [
            0.0, 2.0, 4.0, 6.0,
        ]

    def test_results_stamp_last_read_once_per_request(
        self, server, port, store_dir
    ):
        status, created = request(
            port, "POST", "/submissions", raw_spec_body(n=3)
        )
        with Worker(
            store_dir, poll_seconds=0.01, code_version="pinned"
        ) as worker:
            assert worker.run(until_drained=True, timeout=30) == 1
        stats = server.service.store.stats
        touches, reads = stats["read_touch"], stats["column_read"]
        status, results = request(
            port, "GET",
            f"/submissions/{created['id']}/results?metrics=y,n,seed_mod",
        )
        assert status == 200
        assert results["headers"] == ["index", "params", "y", "n", "seed_mod"]
        assert stats["column_read"] == reads + 3
        assert stats["read_touch"] == touches + 1

    def test_default_results_list_the_string_metrics(self, port, store_dir):
        status, created = request(port, "POST", "/submissions", {
            "preset": "baseline-32",
            "axes": {"seed": [1]},
            "horizon": 300,
        })
        assert status == 201
        with Worker(
            store_dir, poll_seconds=0.01, code_version="pinned"
        ) as worker:
            assert worker.run(until_drained=True, timeout=60) == 1
        status, results = request(
            port, "GET", f"/submissions/{created['id']}/results"
        )
        assert status == 200
        headers = results["headers"]
        assert headers[2:] == sorted(headers[2:])
        [row] = results["rows"]
        assert isinstance(row[headers.index("fleet_policy")], str)
        assert row[headers.index("scenario")] == "baseline-32"

    def test_results_naming_an_unreturned_metric_get_400(
        self, port, store_dir
    ):
        status, created = request(
            port, "POST", "/submissions", raw_spec_body(n=2)
        )
        with Worker(
            store_dir, poll_seconds=0.01, code_version="pinned"
        ) as worker:
            assert worker.run(until_drained=True, timeout=30) == 1
        status, body = request(
            port, "GET",
            f"/submissions/{created['id']}/results?metrics=y,nosuch",
        )
        assert status == 400
        assert "'nosuch'" in body["error"]


class TestDraining:
    def test_draining_rejects_submissions_but_stays_alive(self, server):
        port = server.server_address[1]
        server.service.draining = True
        status, body = request(
            port, "POST", "/submissions", raw_spec_body()
        )
        assert status == 503
        assert "draining" in body["error"]
        # Reads still work: health advertises the drain, queue serves.
        status, health = request(port, "GET", "/healthz")
        assert status == 200
        assert health["status"] == "draining"
        assert request(port, "GET", "/queue")[0] == 200


class TestServeSubprocess:
    def _start_serve(self, store_dir):
        env = dict(os.environ)
        env["PYTHONPATH"] = subprocess_pythonpath()
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--store", str(store_dir), "--port", "0", "--workers", "0",
            ],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        os.set_blocking(proc.stdout.fileno(), False)
        line, deadline = "", time.monotonic() + 30
        try:
            while "listening on" not in line:
                assert time.monotonic() < deadline, "serve never came up"
                assert proc.poll() is None, proc.stderr.read()
                ready, _, _ = select.select([proc.stdout], [], [], 0.5)
                if ready:
                    line += proc.stdout.readline() or ""
        except BaseException:
            with proc:  # closes the pipes and reaps
                proc.kill()
            raise
        return proc, int(line.rsplit(":", 1)[1].strip())

    def test_sigterm_mid_request_still_drains_cleanly(self, store_dir):
        proc, port = self._start_serve(store_dir)
        # Leaving the block closes the stdout/stderr pipes and reaps.
        with proc:
            try:
                status, _ = request(port, "GET", "/healthz")
                assert status == 200
                # A half-sent request: headers promise a body that
                # never arrives, parking one handler thread mid-read.
                import socket

                with socket.create_connection(("127.0.0.1", port)) as hung:
                    hung.sendall(
                        b"POST /submissions HTTP/1.1\r\n"
                        b"Host: x\r\nContent-Length: 64\r\n\r\n"
                    )
                    proc.send_signal(signal.SIGTERM)
                    assert proc.wait(timeout=30) == 0
            finally:
                if proc.poll() is None:  # pragma: no cover - cleanup
                    proc.kill()
        # The store the server held is intact and reopenable.
        with ResultStore(store_dir, code_version="pinned") as store:
            assert store.verify()["ok"]
