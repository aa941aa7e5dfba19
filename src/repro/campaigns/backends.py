"""Pluggable stage-execution backends for the campaign engine.

The engine decides *what* runs (DAG order, retries, resume, chaos);
a backend decides *where* it runs.  Two are built in:

- :class:`SerialBackend` — stages execute one at a time in the
  orchestrating process (in a single-worker pool supervisor when the
  stage carries a timeout, because a hung in-process stage cannot be
  cancelled).
- :class:`LocalPoolBackend` — independent DAG branches execute
  concurrently under a :class:`~repro.experiments.pool.PoolSupervisor`,
  the one that also runs sweep points: a stage past its deadline kills
  and rebuilds the pool, and a worker crash convicts a stage only
  after it crashes again running alone.

Both speak one protocol — ``submit`` stages, ``drain`` completed
``(stage, report)`` pairs — and both run each stage's step as a pure
function of its :class:`~repro.campaigns.steps.StageContext`, so
campaign values are byte-identical across backends by construction.
Reports are the supervisor's (see :mod:`repro.experiments.pool`)::

    ("ok", value, elapsed)
    ("err", error_text, traceback_text, exception, elapsed)
    ("timeout", elapsed)
    ("crashed", elapsed)
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Type

from repro.errors import ConfigurationError
from repro.campaigns.steps import StageContext, resolve_step
from repro.experiments.pool import PoolSupervisor, timed_call

#: Completed-stage report: (stage name, report tuple).
StageReport = Tuple[str, Tuple[Any, ...]]


def _execute_stage(step_name: str, ctx: StageContext) -> Any:
    """Run one stage's step (in-process or inside a pool worker).

    Module-level so pool workers can resolve it by reference; the step
    itself is re-resolved from the registry on the worker side, which
    keeps :class:`StageContext` (plain data) the only thing pickled.
    """
    return resolve_step(step_name)(ctx)


class ExecutionBackend:
    """Where campaign stages execute.

    Lifecycle: ``start()`` once, any number of ``submit()`` /
    ``drain()`` rounds, ``stop()`` in a ``finally``.  ``drain()``
    blocks until at least one submitted stage reaches a terminal
    outcome (or a deadline expires) and returns every report that is
    ready; the engine owns retries, journaling, and ordering.
    """

    name = "abstract"

    def start(self) -> None:
        """Acquire execution resources (idempotent)."""

    def stop(self) -> None:
        """Release resources; safe to call on a never-started backend."""

    def capacity(self) -> int:
        """How many stages may be in flight at once."""
        raise NotImplementedError

    def submit(
        self,
        stage: str,
        step_name: str,
        ctx: StageContext,
        timeout_seconds: Optional[float] = None,
    ) -> None:
        raise NotImplementedError

    def drain(self) -> List[StageReport]:
        raise NotImplementedError


class SerialBackend(ExecutionBackend):
    """One stage at a time, in the orchestrating process.

    The reference backend: no pools, no pickling (unless a stage
    carries a timeout, which forces a single-worker pool supervisor —
    an in-process hang cannot be cancelled).  Parallel backends must
    match its values byte for byte.
    """

    name = "serial"

    def __init__(self, workers: Optional[int] = None) -> None:
        # ``workers`` accepted for constructor uniformity; serial
        # execution ignores it.
        self._reports: List[StageReport] = []

    def capacity(self) -> int:
        return 1

    def submit(
        self,
        stage: str,
        step_name: str,
        ctx: StageContext,
        timeout_seconds: Optional[float] = None,
    ) -> None:
        if timeout_seconds is None:
            report = timed_call(_execute_stage, (step_name, ctx))
            self._reports.append((stage, report))
            return
        supervisor = PoolSupervisor(1)
        try:
            supervisor.submit(
                stage, _execute_stage, (step_name, ctx), timeout_seconds
            )
            self._reports.extend(supervisor.drain())
        finally:
            supervisor.stop()

    def drain(self) -> List[StageReport]:
        reports, self._reports = self._reports, []
        return reports


class LocalPoolBackend(ExecutionBackend):
    """Independent DAG branches in a supervised process pool.

    A thin adapter: the :class:`~repro.experiments.pool.PoolSupervisor`
    enforces stage timeouts (resubmitting, uncharged, the stages its
    pool rebuild interrupted) and re-runs every stage a dying worker
    took down alone, so only the culprit is ever reported
    ``crashed``.  Values are unaffected because steps are pure
    functions of their context.
    """

    name = "process"

    def __init__(self, workers: Optional[int] = None) -> None:
        self._supervisor = PoolSupervisor(max(1, workers or 2))

    def start(self) -> None:
        self._supervisor.start()

    def stop(self) -> None:
        self._supervisor.stop()

    def capacity(self) -> int:
        return self._supervisor.capacity

    def submit(
        self,
        stage: str,
        step_name: str,
        ctx: StageContext,
        timeout_seconds: Optional[float] = None,
    ) -> None:
        self._supervisor.submit(
            stage, _execute_stage, (step_name, ctx), timeout_seconds
        )

    def drain(self) -> List[StageReport]:
        return self._supervisor.drain()


#: Backend registry the CLI and engine resolve names against.
BACKENDS: Dict[str, Type[ExecutionBackend]] = {
    SerialBackend.name: SerialBackend,
    LocalPoolBackend.name: LocalPoolBackend,
}


def create_backend(
    name: str, workers: Optional[int] = None
) -> ExecutionBackend:
    """Instantiate a backend by registry name.

    >>> create_backend("serial").capacity()
    1
    >>> create_backend("process", workers=3).capacity()
    3
    """
    try:
        backend_cls = BACKENDS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown execution backend {name!r} "
            f"(known: {sorted(BACKENDS)})"
        ) from None
    return backend_cls(workers=workers)
