"""The campaign service: an HTTP veneer + leased worker pool over
:mod:`repro.store`.

Two halves, both thin by design (every durable decision lives in the
store, pinned by the ``tests/store`` + ``tests/service`` batteries):

- :mod:`repro.service.http` — a stdlib-only JSON HTTP server
  (``ThreadingHTTPServer``) exposing ``POST /submissions``,
  ``GET /submissions/<id>``, ``GET /submissions/<id>/results``,
  ``GET /healthz`` and ``GET /queue`` over the existing
  submit/status/results API.
- :mod:`repro.service.workers` — :class:`Worker` (claim → heartbeat
  → execute → release, lease-fenced) and :class:`WorkerSupervisor`
  (N workers forked from the serving process, with restart and
  graceful SIGTERM drain)
  draining the ``submissions`` table.

See ``docs/service.md`` for deployment, the API reference and the
lease semantics.
"""

from repro.service.http import make_server
from repro.service.workers import Worker, WorkerSupervisor, resolve_runner

__all__ = [
    # HTTP
    "make_server",
    # Workers
    "Worker",
    "WorkerSupervisor",
    "resolve_runner",
]
