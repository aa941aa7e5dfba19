"""Stdlib-only JSON HTTP veneer over the result store.

One :class:`CampaignService` object owns a shared-lock store handle
behind a mutex (SQLite connections are single-threaded by contract;
``ThreadingHTTPServer`` handler threads serialise on the mutex — every
operation is a few milliseconds, so the mutex is not a throughput
concern at this layer).  The HTTP handler is a pure router: parse,
delegate, map exceptions to status codes.

Routes::

    POST /submissions                 queue a sweep (scenario preset
                                      + axes, or raw spec + runner)
    GET  /submissions                 every submission, newest first
    GET  /submissions/<id>            one submission + lease state
    GET  /submissions/<id>/results    metric table (?metrics=a,b)
    GET  /queue                       pending/running/done/failed +
                                      stale-lease counts
    GET  /healthz                     liveness + drain state

Status codes: 201 created, 200 ok, 400 malformed body/params, 404
unknown submission (or route), 405 wrong method, 409 results requested
before the submission is ``done``, 500 anything unexpected.  Every
response body is JSON.
"""

from __future__ import annotations

import contextlib
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro._version import __version__
from repro.errors import (
    ConfigurationError,
    ReproError,
    ServiceError,
    StoreError,
    UnknownSubmissionError,
)
from repro.store import ResultStore

#: Largest accepted request body; a sweep spec is a few KB, anything
#: bigger is a client bug, not a bigger sweep.
MAX_BODY_BYTES = 4 * 1024 * 1024


class CampaignService:
    """The application object behind the HTTP handler.

    Thin by contract: every method validates, delegates to the store
    under the mutex, and returns a JSON-ready dict.  ``draining``
    flips when a shutdown begins — ``/healthz`` advertises it so load
    balancers stop routing new submissions while in-flight requests
    finish.
    """

    def __init__(
        self,
        directory: Any,
        code_version: Optional[str] = None,
        supervisor: Optional[Any] = None,
    ) -> None:
        self.directory = Path(directory)
        self.store = ResultStore(
            self.directory, code_version=code_version, shared_writer=True
        ).open()
        self.supervisor = supervisor
        self.draining = False
        self._mutex = threading.RLock()

    def close(self) -> None:
        with self._mutex:
            self.store.close()

    # -- payload builders ----------------------------------------------------

    def submit_payload(self, payload: Any) -> Dict[str, Any]:
        """Queue one submission from a POST body; returns its record.

        Two body shapes:

        - ``{"preset": name, "axes": {path: [values...]}, ...}`` — a
          scenario sweep over a registered preset (optional ``name``,
          ``seed``, ``replications``, ``horizon``), exactly what
          ``repro-hpcqc store submit`` builds;
        - ``{"spec": SweepSpec.to_dict(), "runner":
          "module:qualname", ...}`` — a raw sweep for a runner the
          workers' checkout can import.
        """
        if not isinstance(payload, dict):
            raise ServiceError("request body must be a JSON object")
        name = payload.get("name")
        if name is not None and not isinstance(name, str):
            raise ServiceError("'name' must be a string")
        if "spec" in payload:
            spec, runner = self._raw_spec(payload)
        elif "preset" in payload:
            spec, runner = self._preset_spec(payload)
        else:
            raise ServiceError(
                "request body needs either 'preset' (+'axes') or "
                "'spec' (+'runner')"
            )
        with self._mutex:
            submission_id = self.store.submit(
                name or payload.get("preset") or spec.experiment_id,
                spec,
                runner,
            )
            record = self.store.submission(submission_id)
        return self._public(record, points=len(spec.points()))

    def _raw_spec(self, payload: Dict[str, Any]) -> Tuple[Any, str]:
        from repro.experiments.sweep import SweepSpec

        runner = payload.get("runner")
        if not isinstance(runner, str) or ":" not in runner:
            raise ServiceError(
                "'runner' must be a module:qualname string"
            )
        try:
            spec = SweepSpec.from_dict(payload["spec"])
        except (ReproError, ValueError, TypeError, KeyError,
                AttributeError) as exc:
            raise ServiceError(f"bad 'spec': {exc}") from exc
        return spec, runner

    def _preset_spec(self, payload: Dict[str, Any]) -> Tuple[Any, str]:
        from repro.experiments.sweep import runner_name
        from repro.scenarios import get_scenario
        from repro.scenarios.sweeps import (
            run_scenario_point,
            scenario_sweep_spec,
        )

        # Preset resolution is lazy in the sweep layer (workers look
        # it up per point); the API validates eagerly so a typo is a
        # 400 now, not a failed submission minutes later.
        get_scenario(payload["preset"])
        axes = payload.get("axes")
        if not isinstance(axes, dict) or not axes:
            raise ServiceError(
                "'axes' must be a non-empty object of "
                "{dotted.path: [values, ...]}"
            )
        for path, values in axes.items():
            if not isinstance(values, list) or not values:
                raise ServiceError(
                    f"axis {path!r} must map to a non-empty list"
                )
        # scenario_sweep_spec checks the horizon and stores it as a
        # float, so 600 and 600.0 name the same points (seeds, keys).
        try:
            spec = scenario_sweep_spec(
                payload["preset"],
                axes,
                base_seed=int(payload.get("seed", 0)),
                replications=int(payload.get("replications", 1)),
                run_horizon=payload.get("horizon"),
            )
        except (ReproError, ValueError, TypeError) as exc:
            raise ServiceError(str(exc)) from exc
        return spec, runner_name(run_scenario_point)

    def submissions_payload(self) -> List[Dict[str, Any]]:
        with self._mutex:
            rows = self.store.status()
        return [self._public(row) for row in rows]

    def submission_payload(self, submission_id: int) -> Dict[str, Any]:
        with self._mutex:
            record = self.store.submission(submission_id)
        return self._public(record)

    def results_payload(
        self,
        submission_id: int,
        metrics: Optional[List[str]] = None,
    ) -> Dict[str, Any]:
        with self._mutex:
            record = self.store.submission(submission_id)
            if record["state"] != "done":
                raise _NotDone(record["state"])
            headers, rows = self.store.results_rows(
                submission_id, metrics=metrics
            )
        return {"id": submission_id, "headers": headers, "rows": rows}

    def queue_payload(self) -> Dict[str, Any]:
        with self._mutex:
            return self.store.queue_summary()

    def health_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "status": "draining" if self.draining else "ok",
            "version": __version__,
            "store": str(self.directory),
            "queue": self.queue_payload(),
        }
        if self.supervisor is not None:
            payload["workers_alive"] = self.supervisor.alive_count()
        return payload

    def replace_workers(self) -> None:
        """Replace crashed supervised workers, within the restart budget.

        Forks, so it runs on ``serve_forever``'s thread only, and under
        the mutex: no handler thread is inside SQLite during a fork.
        """
        if self.supervisor is not None and not self.draining:
            with self._mutex:
                self.supervisor.poll()

    @staticmethod
    def _public(record: Dict[str, Any], **extra: Any) -> Dict[str, Any]:
        """A submission row for the wire (specs stay server-side)."""
        public = {
            key: value
            for key, value in record.items()
            if key != "spec_json"
        }
        public.update(extra)
        return public


class _NotDone(ServiceError):
    """Results requested before the submission finished (HTTP 409)."""

    def __init__(self, state: str) -> None:
        super().__init__(
            f"submission is {state!r}, results need state 'done'"
        )
        self.state = state


class ServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service object.

    Forked workers close their copy of the listening socket, so the
    port dies with the server.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], service: CampaignService):
        super().__init__(address, ServiceHandler)
        self.service = service
        if service.supervisor is not None:
            service.supervisor.close_in_child.append(self.socket)

    def service_actions(self) -> None:
        # serve_forever calls this on its own thread after every
        # request and poll interval.
        super().service_actions()
        self.service.replace_workers()


class ServiceHandler(BaseHTTPRequestHandler):
    """Router: paths → :class:`CampaignService` methods → JSON."""

    server_version = f"repro-hpcqc/{__version__}"
    protocol_version = "HTTP/1.1"
    # Headers and body leave as two segments; with Nagle on, delayed
    # ACK holds the body back ~40 ms on every keep-alive response.
    disable_nagle_algorithm = True

    # -- plumbing ------------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        # Quiet by default; the CLI's --verbose re-enables it.
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    @property
    def service(self) -> CampaignService:
        return self.server.service  # type: ignore[attr-defined]

    def _respond(self, code: int, payload: Any) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        with contextlib.suppress(BrokenPipeError, ConnectionResetError):
            self.wfile.write(body)

    def _error(self, code: int, message: str, **extra: Any) -> None:
        self._respond(code, {"error": message, **extra})

    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ServiceError("request body required")
        if length > MAX_BODY_BYTES:
            raise ServiceError(
                f"request body over {MAX_BODY_BYTES} bytes"
            )
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ServiceError(f"body is not valid JSON: {exc}") from exc

    # -- routing -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        parts = urlsplit(self.path)
        segments = [s for s in parts.path.split("/") if s]
        query = parse_qs(parts.query)
        try:
            if segments == ["healthz"]:
                return self._respond(200, self.service.health_payload())
            if segments == ["queue"]:
                return self._respond(200, self.service.queue_payload())
            if segments == ["submissions"]:
                return self._respond(
                    200, self.service.submissions_payload()
                )
            if len(segments) >= 2 and segments[0] == "submissions":
                try:
                    submission_id = int(segments[1])
                except ValueError:
                    return self._error(404, "no such submission")
                if len(segments) == 2:
                    return self._respond(
                        200,
                        self.service.submission_payload(submission_id),
                    )
                if len(segments) == 3 and segments[2] == "results":
                    metrics = None
                    if "metrics" in query:
                        metrics = [
                            m.strip()
                            for value in query["metrics"]
                            for m in value.split(",")
                            if m.strip()
                        ]
                    return self._respond(
                        200,
                        self.service.results_payload(
                            submission_id, metrics=metrics
                        ),
                    )
            return self._error(404, f"no route for {parts.path!r}")
        except _NotDone as exc:
            return self._error(409, str(exc), state=exc.state)
        except UnknownSubmissionError as exc:
            return self._error(404, str(exc))
        except (ServiceError, ConfigurationError) as exc:
            return self._error(400, str(exc))
        except (StoreError, ReproError) as exc:
            return self._error(500, str(exc))

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        parts = urlsplit(self.path)
        segments = [s for s in parts.path.split("/") if s]
        try:
            if segments == ["submissions"]:
                if self.service.draining:
                    return self._error(
                        503, "service is draining; resubmit elsewhere"
                    )
                payload = self._read_body()
                record = self.service.submit_payload(payload)
                return self._respond(201, record)
            return self._error(404, f"no route for {parts.path!r}")
        except (ServiceError, ConfigurationError) as exc:
            return self._error(400, str(exc))
        except (StoreError, ReproError) as exc:
            return self._error(500, str(exc))

    def do_PUT(self) -> None:  # noqa: N802
        self._error(405, "method not allowed")

    do_DELETE = do_PUT


def make_server(
    directory: Any,
    host: str = "127.0.0.1",
    port: int = 0,
    code_version: Optional[str] = None,
    supervisor: Optional[Any] = None,
) -> ServiceServer:
    """A ready-to-serve :class:`ServiceServer` (port 0 = ephemeral;
    the bound port is ``server.server_address[1]``)."""
    service = CampaignService(
        directory, code_version=code_version, supervisor=supervisor
    )
    return ServiceServer((host, port), service)
