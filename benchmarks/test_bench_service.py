"""Campaign service benchmark: the full loop, over the wire.

Two sweep submissions (100 points each) enter through a live HTTP
server, a supervised pool of two forked workers claims them
under leases and drains them, and the results come back through
``GET /submissions/<id>/results`` — submit-to-results wall time for
the whole round trip, HTTP parsing, SQLite lease arbitration, worker
fork and columnar finalize included.

Throughput is published to ``BENCH_<rev>.json`` as
``service_points_per_second`` via ``bench_record``; the CI
``service-smoke`` job budgets it against the checked-in baseline.
"""

import http.client
import json
import threading
import time

from repro.experiments.sweep import SweepSpec
from repro.metrics.report import render_table
from repro.service import WorkerSupervisor, make_server

#: Points per submission x submissions: enough work that worker
#: startup does not dominate, small enough for a CI smoke lane.
POINTS = 100
SUBMISSIONS = 2

#: The sweep runner the workers import; written next to the store and
#: put on the benchmark's sys.path, like a deployed checkout.
RUNNER_MODULE = """
def runner(params, seed):
    x = params["x"]
    return {"y": x * 2.0, "n": x, "seed_mod": seed % 1000}
"""


def _request(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        payload = (
            json.dumps(body).encode("utf-8") if body is not None else None
        )
        conn.request(method, path, body=payload)
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode())
    finally:
        conn.close()


def test_bench_service(run_once, bench_record, tmp_path, monkeypatch):
    store_dir = tmp_path / "store"
    (tmp_path / "bench_svc_runner.py").write_text(
        RUNNER_MODULE, encoding="utf-8"
    )
    # The workers are forks of this process: they import the runner
    # from its sys.path.
    monkeypatch.syspath_prepend(str(tmp_path))
    supervisor = WorkerSupervisor(
        store_dir,
        workers=2,
        lease_seconds=30.0,
        poll_seconds=0.05,
    )
    server = make_server(store_dir, code_version="bench")
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    def submit_drain_fetch():
        t0 = time.perf_counter()
        ids = []
        for index in range(SUBMISSIONS):
            spec = SweepSpec(
                f"bench-service-{index}",
                axes={"x": list(range(POINTS))},
            )
            status, record = _request(port, "POST", "/submissions", {
                "name": f"bench-{index}",
                "spec": spec.to_dict(),
                "runner": "bench_svc_runner:runner",
            })
            assert status == 201, record
            ids.append(record["id"])
        supervisor.start()
        deadline = time.monotonic() + 300
        states = {}
        while time.monotonic() < deadline:
            states = {
                sid: _request(port, "GET", f"/submissions/{sid}")[1]
                for sid in ids
            }
            if all(r["state"] in ("done", "failed") for r in states.values()):
                break
            supervisor.poll()
            time.sleep(0.05)
        t1 = time.perf_counter()
        assert all(
            r["state"] == "done" for r in states.values()
        ), states
        tables = {}
        for sid in ids:
            status, table = _request(
                port, "GET", f"/submissions/{sid}/results?metrics=y"
            )
            assert status == 200, table
            tables[sid] = table
        t2 = time.perf_counter()
        return tables, t1 - t0, t2 - t1

    try:
        tables, drain_s, fetch_s = run_once(submit_drain_fetch)
    finally:
        supervisor.drain(timeout=30)
        server.shutdown()
        server.server_close()
        server.service.close()
        thread.join(timeout=5)

    total = POINTS * SUBMISSIONS
    for table in tables.values():
        assert table["headers"] == ["index", "params", "y"]
        assert [row[2] for row in table["rows"]] == [
            x * 2.0 for x in range(POINTS)
        ]

    rate = total / max(drain_s, 1e-9)
    print()
    print(
        render_table(
            ["phase", "wall_s", "points/s"],
            [
                ["submit + drain", round(drain_s, 3), round(rate)],
                ["results fetch", round(fetch_s, 4), ""],
            ],
            title=(
                f"Campaign service: {SUBMISSIONS} submissions x "
                f"{POINTS} points, 2 workers"
            ),
        )
    )
    bench_record(
        points=total,
        submissions=SUBMISSIONS,
        workers=2,
        drain_s=round(drain_s, 4),
        results_fetch_s=round(fetch_s, 5),
        service_points_per_second=round(rate),
    )
