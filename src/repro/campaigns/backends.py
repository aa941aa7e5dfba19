"""Pluggable stage-execution backends for the campaign engine.

The engine decides *what* runs (DAG order, retries, resume, chaos);
a backend decides *where* it runs.  Two are built in:

- :class:`SerialBackend` — stages execute one at a time in the
  orchestrating process (in a transient single-worker pool when the
  stage carries a timeout, because a hung in-process stage cannot be
  cancelled).
- :class:`LocalPoolBackend` — independent DAG branches execute
  concurrently in a fork-context process pool; a stage past its
  deadline kills and rebuilds the pool (the same recovery the sweep
  engine uses for hung workers).

Both speak one protocol — ``submit`` stages, ``drain`` completed
``(stage, outcome-tuple)`` pairs — and both run each stage's step as a
pure function of its :class:`~repro.campaigns.steps.StageContext`, so
campaign values are byte-identical across backends by construction.

Outcome tuples::

    ("ok", value, elapsed)
    ("err", error_text, traceback_text, elapsed)
    ("timeout", elapsed)
    ("crashed", elapsed)
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, Optional, Tuple, Type

from repro.errors import ConfigurationError
from repro.campaigns.steps import StageContext, resolve_step
from repro.experiments.sweep import _process_pool, _terminate_pool

#: Completed-stage report: (stage name, outcome tuple).
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
    carries a timeout, which forces a transient single-worker pool —
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
        start = time.perf_counter()
        if timeout_seconds is not None:
            self._reports.append(
                self._isolated(stage, step_name, ctx, timeout_seconds)
            )
            return
        try:
            value = _execute_stage(step_name, ctx)
        except BaseException as exc:
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            elapsed = time.perf_counter() - start
            self._reports.append(
                (
                    stage,
                    (
                        "err",
                        f"{type(exc).__name__}: {exc}",
                        traceback.format_exc(),
                        elapsed,
                    ),
                )
            )
        else:
            elapsed = time.perf_counter() - start
            self._reports.append((stage, ("ok", value, elapsed)))

    def _isolated(
        self,
        stage: str,
        step_name: str,
        ctx: StageContext,
        timeout_seconds: float,
    ) -> StageReport:
        """Run one timed stage in a throwaway single-worker pool."""
        pool = _process_pool(1)
        start = time.perf_counter()
        try:
            future = pool.submit(_execute_stage, step_name, ctx)
            try:
                value = future.result(timeout=timeout_seconds)
            except TimeoutError:
                return (stage, ("timeout", time.perf_counter() - start))
            except BrokenProcessPool:
                return (stage, ("crashed", time.perf_counter() - start))
            except BaseException as exc:
                if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                    raise
                return (
                    stage,
                    (
                        "err",
                        f"{type(exc).__name__}: {exc}",
                        traceback.format_exc(),
                        time.perf_counter() - start,
                    ),
                )
            return (stage, ("ok", value, time.perf_counter() - start))
        finally:
            _terminate_pool(pool)

    def drain(self) -> List[StageReport]:
        reports, self._reports = self._reports, []
        return reports


class LocalPoolBackend(ExecutionBackend):
    """Independent DAG branches in a fork-context process pool.

    A stage past its per-attempt deadline cannot be cancelled (pool
    workers are not interruptible), so expiry kills and rebuilds the
    whole pool; other in-flight stages are transparently resubmitted —
    their partial work is discarded, never charged as a failure,
    and their values are unaffected because steps are pure functions
    of their context.  A worker that dies (pool marked broken) charges
    a ``crashed`` outcome to every in-flight stage — coarser than the
    sweep engine's per-point solo quarantine, acceptable at stage
    granularity where in-flight counts are small.
    """

    name = "process"

    def __init__(self, workers: Optional[int] = None) -> None:
        self._workers = max(1, workers or 2)
        self._pool: Optional[ProcessPoolExecutor] = None
        #: future -> (stage, step, ctx, deadline | None, started_at)
        self._inflight: Dict[Any, Tuple] = {}

    def start(self) -> None:
        if self._pool is None:
            self._pool = _process_pool(self._workers)

    def stop(self) -> None:
        if self._pool is not None:
            _terminate_pool(self._pool)
            self._pool = None
        self._inflight.clear()

    def capacity(self) -> int:
        return self._workers

    def submit(
        self,
        stage: str,
        step_name: str,
        ctx: StageContext,
        timeout_seconds: Optional[float] = None,
    ) -> None:
        self.start()
        deadline = (
            time.monotonic() + timeout_seconds
            if timeout_seconds is not None
            else None
        )
        future = self._pool.submit(_execute_stage, step_name, ctx)
        self._inflight[future] = (
            stage,
            step_name,
            ctx,
            timeout_seconds,
            deadline,
            time.perf_counter(),
        )

    def _rebuild(self) -> None:
        _terminate_pool(self._pool)
        self._pool = _process_pool(self._workers)

    def _resubmit(self, entries: List[Tuple]) -> None:
        """Re-dispatch in-flight stages after a pool rebuild."""
        for stage, step_name, ctx, timeout_seconds, _, _ in entries:
            self.submit(stage, step_name, ctx, timeout_seconds)

    def drain(self) -> List[StageReport]:
        if not self._inflight:
            return []
        reports: List[StageReport] = []
        while not reports:
            now = time.monotonic()
            deadlines = [
                entry[4]
                for entry in self._inflight.values()
                if entry[4] is not None
            ]
            wait_for = (
                max(0.0, min(deadlines) - now) if deadlines else None
            )
            done, _pending = futures_wait(
                list(self._inflight),
                timeout=wait_for,
                return_when=FIRST_COMPLETED,
            )
            broken = False
            for future in done:
                entry = self._inflight.pop(future)
                stage, _, _, _, _, started = entry
                elapsed = time.perf_counter() - started
                try:
                    value = future.result()
                except BrokenProcessPool:
                    broken = True
                    reports.append((stage, ("crashed", elapsed)))
                except BaseException as exc:
                    if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                        raise
                    reports.append(
                        (
                            stage,
                            (
                                "err",
                                f"{type(exc).__name__}: {exc}",
                                traceback.format_exc(),
                                elapsed,
                            ),
                        )
                    )
                else:
                    reports.append((stage, ("ok", value, elapsed)))
            if broken:
                # The pool is unusable: charge every other in-flight
                # stage as crashed too (attribution at stage
                # granularity) and start fresh.
                for future, entry in list(self._inflight.items()):
                    stage, _, _, _, _, started = entry
                    reports.append(
                        (
                            stage,
                            ("crashed", time.perf_counter() - started),
                        )
                    )
                self._inflight.clear()
                self._rebuild()
                continue
            # Deadline sweep: expired stages time out; survivors are
            # resubmitted because the rebuild killed their workers.
            now = time.monotonic()
            expired = [
                future
                for future, entry in self._inflight.items()
                if entry[4] is not None and entry[4] <= now
            ]
            if expired:
                survivors = [
                    entry
                    for future, entry in self._inflight.items()
                    if future not in expired
                ]
                for future in expired:
                    entry = self._inflight[future]
                    reports.append(
                        (
                            entry[0],
                            ("timeout", time.perf_counter() - entry[5]),
                        )
                    )
                self._inflight.clear()
                self._rebuild()
                self._resubmit(survivors)
        return reports


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
