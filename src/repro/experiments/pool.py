"""One process-pool supervisor: every worker pool in the repo.

Sweeps (:func:`repro.experiments.sweep.run_sweep`) and the campaign
``process`` backend hand their attempts to a :class:`PoolSupervisor`
and keep only their own retry policy.  The engine decides *what* runs;
only the supervisor knows about processes.  Its rules:

- At most ``capacity`` tasks run at once; the rest queue in submission
  order.  A task's deadline starts when it is dispatched.
- A task past its deadline is reported ``timeout``.  A hung worker
  cannot be cancelled, only killed, so the pool is killed and rebuilt;
  the bystanders it took down are resubmitted and not charged.
- A dying worker breaks the pool and fails *every* in-flight future,
  so the culprit cannot be told from its co-residents.  Nobody is
  charged: each in-flight task becomes a **suspect** and re-runs
  alone, with its original arguments.  Only a crash during such a solo
  run is reported ``crashed``; that key runs alone again when it is
  next submitted, so a repeat killer cannot take the pool down twice.
- A pool that refuses a submission (a worker died while idle) is
  rebuilt the same way.
- :meth:`PoolSupervisor.stop` kills the workers while work is queued
  or running, so an abort never leaves orphans.  Workers also exit on
  their own when the orchestrating process dies.

Reports, one per submission, keyed by the caller's key::

    ("ok", value, elapsed)
    ("err", error_text, traceback_text, exception, elapsed)
    ("timeout", elapsed)
    ("crashed", elapsed)
"""

from __future__ import annotations

import math
import multiprocessing
import os
import threading
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

#: One task's terminal report (see the module docstring).
Report = Tuple[Any, ...]


def timed_call(fn: Callable[..., Any], args: Sequence[Any]) -> Report:
    """Call ``fn(*args)`` once, timed; an exception becomes a report.

    The one "call, catch, time" step behind every attempt, in pool
    workers and in the in-process serial paths alike.  Returns
    ``("ok", value, elapsed)`` or ``("err", error_text,
    traceback_text, exception, elapsed)``; ``KeyboardInterrupt`` and
    ``SystemExit`` propagate.

    >>> timed_call(divmod, (7, 2))[:2]
    ('ok', (3, 1))
    >>> timed_call(int, ("x",))[1]
    "ValueError: invalid literal for int() with base 10: 'x'"
    """
    start = time.perf_counter()
    try:
        value = fn(*args)
    except Exception as exc:
        return _err_report(exc, time.perf_counter() - start)
    return ("ok", value, time.perf_counter() - start)


def _err_report(exc: Exception, elapsed: float) -> Report:
    """The ``err`` report for the exception being handled."""
    text = f"{type(exc).__name__}: {exc}"
    return ("err", text, traceback.format_exc(), exc, elapsed)


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Hard-stop a pool: cancel queued work, kill and reap workers."""
    # Snapshot the workers first: ``shutdown`` drops the pool's
    # ``_processes`` reference, and a hung worker left unkilled keeps
    # the executor's management thread (and interpreter exit) blocked
    # forever.
    processes = list((getattr(pool, "_processes", None) or {}).values())
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - shutdown of a broken pool
        pass
    for process in processes:
        try:
            process.kill()
        except Exception:  # pragma: no cover - already dead
            pass
    for process in processes:
        try:
            process.join(timeout=5.0)
        except Exception:  # pragma: no cover - already reaped
            pass


#: Seconds between a pool worker's checks that its parent still lives.
_PARENT_POLL_SECONDS = 0.5


def _exit_with_parent(parent_pid: int) -> None:
    """Pool-worker initializer: exit once the orchestrator is gone.

    A SIGKILL'd orchestrator cannot reap its workers, and an idle worker
    blocked on the call queue would live on, reparented to init.  A
    daemon thread polls ``os.getppid()`` and hard-exits the worker as
    soon as it changes.
    """

    def watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(_PARENT_POLL_SECONDS)
        os._exit(1)

    threading.Thread(
        target=watch, name="exit-with-parent", daemon=True
    ).start()


def _process_pool(max_workers: int) -> ProcessPoolExecutor:
    """A worker pool whose workers exit when their parent dies.

    Fork where available: point runners defined in non-importable
    modules (pytest benchmark files) resolve by reference in forked
    children; spawn elsewhere.
    """
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        context = multiprocessing.get_context()
    return ProcessPoolExecutor(
        max_workers=max_workers,
        mp_context=context,
        initializer=_exit_with_parent,
        initargs=(os.getpid(),),
    )


@dataclass
class _Task:
    """One submission: what to call, and where it stands."""

    key: Any
    fn: Callable[..., Any]
    args: Tuple[Any, ...]
    timeout: Optional[float]
    solo: bool = False
    deadline: float = math.inf
    started: float = 0.0


class PoolSupervisor:
    """Runs keyed tasks in a process pool under the module's rules.

    ``submit`` tasks, ``drain`` their reports, ``stop`` in a
    ``finally``.  The pool is built on first use and rebuilt as
    needed; a stopped supervisor may be used again.

    >>> supervisor = PoolSupervisor(2)
    >>> try:
    ...     supervisor.submit("a", divmod, (7, 2))
    ...     supervisor.drain()[0][1][:2]
    ... finally:
    ...     supervisor.stop()
    ('ok', (3, 1))
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = max(1, capacity)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._queue: Deque[_Task] = deque()
        #: Tasks awaiting an exclusive run, for crash attribution.
        self._suspects: Deque[_Task] = deque()
        self._inflight: Dict[Any, _Task] = {}
        #: Keys whose solo run crashed; their next submission runs alone.
        self._convicted: set = set()
        self._reports: List[Tuple[Any, Report]] = []

    @property
    def pending(self) -> int:
        """Submissions whose report has not been drained yet."""
        return (
            len(self._queue)
            + len(self._suspects)
            + len(self._inflight)
            + len(self._reports)
        )

    def start(self) -> None:
        """Build the pool now instead of at the first dispatch."""
        if self._pool is None:
            self._pool = _process_pool(self.capacity)

    def stop(self) -> None:
        """Release the workers and forget all unreported work.

        Idle workers exit cleanly; with work still queued or running
        (an abort) they are killed.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            if self._inflight or self._queue or self._suspects:
                _terminate_pool(pool)
            else:
                pool.shutdown(wait=True, cancel_futures=True)
        self._queue.clear()
        self._suspects.clear()
        self._inflight.clear()
        self._convicted.clear()
        self._reports.clear()

    def submit(
        self,
        key: Any,
        fn: Callable[..., Any],
        args: Sequence[Any] = (),
        timeout: Optional[float] = None,
    ) -> None:
        """Queue ``fn(*args)``; its report comes back under ``key``.

        ``fn`` must be picklable by reference (module-level).
        ``timeout`` is the wall-clock budget in seconds, counted from
        dispatch.  Keys must be unique among pending submissions.
        """
        task = _Task(key, fn, tuple(args), timeout)
        if key in self._convicted:
            self._convicted.discard(key)
            self._suspects.append(task)
        else:
            self._queue.append(task)
        self._dispatch()

    def drain(
        self, timeout: Optional[float] = None
    ) -> List[Tuple[Any, Report]]:
        """``(key, report)`` pairs, blocking until at least one is ready.

        Returns early, possibly empty, once ``timeout`` seconds pass
        (sleeping them out if nothing is running) or when nothing is
        pending at all.
        """
        until = None if timeout is None else time.monotonic() + timeout
        self._dispatch()
        while not self._reports and self._inflight:
            now = time.monotonic()
            if until is not None and now >= until:
                break
            first = min(task.deadline for task in self._inflight.values())
            if until is not None:
                first = min(first, until)
            done, _ = wait(
                list(self._inflight),
                timeout=None if first == math.inf else max(0.0, first - now),
                return_when=FIRST_COMPLETED,
            )
            broke = False
            for future in done:
                broke = self._settle(future) or broke
            if broke:
                self._break()
            else:
                self._expire(time.monotonic())
            self._dispatch()
        if until is not None and not self._reports and not self._inflight:
            time.sleep(max(0.0, until - time.monotonic()))
        reports, self._reports = self._reports, []
        return reports

    # -- internals -----------------------------------------------------

    def _dispatch(self) -> None:
        """Start queued work: suspects alone first, then to capacity."""
        refused = False
        while True:
            if self._suspects:
                if self._inflight:
                    return
                queue, solo = self._suspects, True
            elif self._queue and len(self._inflight) < self.capacity:
                queue, solo = self._queue, False
            else:
                return
            task = queue[0]
            self.start()
            try:
                future = self._pool.submit(timed_call, task.fn, task.args)
            except (BrokenProcessPool, RuntimeError):
                if refused:
                    # A brand-new pool refusing work is no worker crash
                    # (e.g. interpreter shutdown): give up.
                    raise
                refused = True
                self._break()
                continue
            refused = False
            queue.popleft()
            task.solo = solo
            task.started = time.perf_counter()
            task.deadline = (
                time.monotonic() + task.timeout
                if task.timeout is not None
                else math.inf
            )
            self._inflight[future] = task

    def _settle(self, future: Any) -> bool:
        """File a finished future's report; True if its worker died."""
        task = self._inflight.pop(future)
        try:
            report = future.result()
        except BrokenProcessPool:
            self._lost(task)
            return True
        except Exception as exc:
            # The attempt itself never raises: this is a transfer
            # failure (e.g. an unpicklable return value).
            report = _err_report(exc, time.perf_counter() - task.started)
        self._reports.append((task.key, report))
        return False

    def _lost(self, task: _Task) -> None:
        """A task whose worker pool broke under it."""
        if task.solo:
            self._convicted.add(task.key)
            self._reports.append(
                (task.key, ("crashed", time.perf_counter() - task.started))
            )
        else:
            # Ambiguous: any in-flight task may have killed the worker.
            self._suspects.append(task)

    def _break(self) -> None:
        """The pool broke: settle every in-flight task, then rebuild."""
        for future in list(self._inflight):
            if future.done():
                self._settle(future)
            else:  # pragma: no cover - the executor failed them already
                self._lost(self._inflight.pop(future))
        self._rebuild()

    def _expire(self, now: float) -> None:
        """Report overdue tasks; kill the pool to reclaim their workers."""
        if not any(
            now >= task.deadline and not future.done()
            for future, task in self._inflight.items()
        ):
            return
        # Harvest finished results first: the rebuild discards them.
        for future in [f for f in self._inflight if f.done()]:
            self._settle(future)
        for task in self._inflight.values():
            if now >= task.deadline:
                elapsed = time.perf_counter() - task.started
                self._reports.append((task.key, ("timeout", elapsed)))
            else:
                # A bystander of our teardown, not a failure of its own.
                self._queue.append(task)
        self._inflight.clear()
        self._rebuild()

    def _rebuild(self) -> None:
        """Kill the current pool; the next dispatch builds a fresh one."""
        if self._pool is not None:
            _terminate_pool(self._pool)
            self._pool = None
