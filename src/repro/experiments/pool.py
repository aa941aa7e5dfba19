"""One supervisor for every attempt the repo runs, pooled or not, and
one ledger that charges what it reports.

Sweeps (:func:`repro.experiments.sweep.run_sweep`) and campaigns
(:class:`repro.campaigns.engine.CampaignEngine`) hand their attempts
to a :class:`PoolSupervisor` and its reports to an
:class:`AttemptLedger`, which turns each report into a verdict under
the key's :class:`~repro.experiments.resilience.FailurePolicy`.
The engine decides *what* runs; only the supervisor knows *where*,
and only the ledger decides whether a failure is final.
In-process mode (``in_process=True``) runs each task without a
deadline inside :meth:`PoolSupervisor.drain`, one per call, in
submission order; a task with a deadline still goes to the pool,
since only a process can be killed.  The pool's rules:

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
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.experiments.resilience import (
    STATUS_CRASHED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMED_OUT,
    FailurePolicy,
    Outcome,
)

#: One task's terminal report (see the module docstring).
Report = Tuple[Any, ...]


def timed_call(fn: Callable[..., Any], args: Sequence[Any]) -> Report:
    """Call ``fn(*args)`` once, timed; an exception becomes a report.

    The one "call, catch, time" step behind every attempt, in pool
    workers and in the supervisor's in-process mode alike.  Returns
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
    manager = getattr(pool, "_executor_manager_thread", None)
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - shutdown of a broken pool
        pass
    for process in processes:
        try:
            process.kill()
        except Exception:  # pragma: no cover - already dead
            pass
    # The executor's manager thread joins the killed workers too.  When
    # its waitpid wins, our join returns before the exit status is
    # recorded and the worker still looks alive; once the manager
    # thread ends, every worker has been reaped and recorded.
    if manager is not None:
        manager.join(timeout=5.0)
    for process in processes:
        try:
            process.join(timeout=5.0)
        except Exception:  # pragma: no cover - already reaped
            pass


#: Seconds between a pool worker's checks that its parent still lives.
_PARENT_POLL_SECONDS = 0.5


def exit_with_parent(parent_pid: int) -> None:
    """Worker initializer: exit once the orchestrator is gone.

    A SIGKILL'd orchestrator cannot reap its workers, and an idle worker
    blocked on the call queue (or on a service doorbell) would live on,
    reparented to init.  A daemon thread polls ``os.getppid()`` and
    hard-exits the worker as soon as it changes.  Pool workers and the
    service's supervised workers both run it.
    """

    def watch() -> None:
        while os.getppid() == parent_pid:
            time.sleep(_PARENT_POLL_SECONDS)
        os._exit(1)

    threading.Thread(
        target=watch, name="exit-with-parent", daemon=True
    ).start()


def fork_context() -> multiprocessing.context.BaseContext:
    """``fork`` where available, the platform default elsewhere.

    A forked child starts with its parent's imports and resolves
    callables by reference, so point runners defined in non-importable
    modules (pytest benchmark files) work in it.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def _process_pool(max_workers: int) -> ProcessPoolExecutor:
    """A forked worker pool whose workers exit when their parent dies."""
    return ProcessPoolExecutor(
        max_workers=max_workers,
        mp_context=fork_context(),
        initializer=exit_with_parent,
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
    """Runs keyed tasks under the module's rules.

    ``submit`` tasks, ``drain`` their reports, ``stop`` in a
    ``finally``.  The pool is built on first use and rebuilt as
    needed; a stopped supervisor may be used again.  With
    ``in_process=True`` tasks without a timeout never reach it: each
    :meth:`drain` call runs the oldest of them here, via
    :func:`timed_call` (``KeyboardInterrupt`` propagates).

    >>> supervisor = PoolSupervisor(2)
    >>> try:
    ...     supervisor.submit("a", divmod, (7, 2))
    ...     supervisor.drain()[0][1][:2]
    ... finally:
    ...     supervisor.stop()
    ('ok', (3, 1))
    >>> inline = PoolSupervisor(1, in_process=True)
    >>> inline.submit("b", divmod, (9, 4))
    >>> [(key, report[:2]) for key, report in inline.drain()]
    [('b', ('ok', (2, 1)))]
    """

    def __init__(self, capacity: int, in_process: bool = False) -> None:
        self.capacity = max(1, capacity)
        self._in_process = in_process
        self._pool: Optional[ProcessPoolExecutor] = None
        #: In-process mode's tasks without a deadline, oldest first.
        self._inline: Deque[_Task] = deque()
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
            len(self._inline)
            + len(self._queue)
            + len(self._suspects)
            + len(self._inflight)
            + len(self._reports)
        )

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
        self._inline.clear()
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

        ``fn`` must be picklable by reference (module-level) unless it
        runs in-process.  ``timeout`` is the wall-clock budget in
        seconds, counted from dispatch.  Keys must be unique among
        pending submissions.
        """
        task = _Task(key, fn, tuple(args), timeout)
        if self._in_process and timeout is None:
            self._inline.append(task)
        elif key in self._convicted:
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
        pending at all.  An in-process task runs to completion whatever
        the ``timeout``.
        """
        until = None if timeout is None else time.monotonic() + timeout
        self._dispatch()
        if not self._reports and self._inline:
            task = self._inline.popleft()
            self._reports.append((task.key, timed_call(task.fn, task.args)))
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
            if self._pool is None:
                self._pool = _process_pool(self.capacity)
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


@dataclass
class _Charges:
    """What one key's attempts have cost so far."""

    policy: FailurePolicy
    label: str
    index: Optional[int]
    seconds: List[float] = field(default_factory=list)
    failures: int = 0
    crashes: int = 0
    error: Optional[str] = None
    traceback: Optional[str] = None

    def outcome(self, status: str) -> Outcome:
        return Outcome(
            key=self.label,
            status=status,
            index=self.index,
            attempts=len(self.seconds),
            error=self.error,
            traceback=self.traceback,
            attempt_seconds=list(self.seconds),
        )


class Verdict(NamedTuple):
    """What :meth:`AttemptLedger.settle` made of one report."""

    #: ``"ok"``, ``"retry"`` (resubmit now), ``"wait"`` (resubmit once
    #: :meth:`AttemptLedger.due` returns the key) or ``"terminal"``.
    kind: str
    #: The key's record, for ``ok`` and ``terminal``.
    outcome: Optional[Outcome] = None
    #: The attempt's return value, for ``ok``.
    value: Any = None
    #: The exception a terminal ``err`` report carried.
    exception: Optional[BaseException] = None


class AttemptLedger:
    """Charges each key's reports against its failure policy.

    The one place a report becomes a verdict, for sweep points and
    campaign stages alike.  A raising attempt or a timeout spends one
    of ``policy.max_attempts`` and retries after its backoff (jittered
    by ``backoff_prefix`` + the key's label).  A crash — reported only
    once a solo run convicted the key — spends one of
    ``policy.max_crashes`` and retries at once.  A spent budget is
    terminal: ``failed``, ``timed_out`` or ``crashed``, after the
    failure that spent it.  ``noun`` ("point", "stage") names the
    work in error texts.

    >>> ledger = AttemptLedger("point")
    >>> ledger.open(0, FailurePolicy(max_attempts=2), label="x=1")
    >>> ledger.settle(0, ("err", "ValueError: no", "tb", None, 0.1)).kind
    'retry'
    >>> verdict = ledger.settle(0, ("timeout", 0.5))
    >>> verdict.kind, verdict.outcome.status, verdict.outcome.attempts
    ('terminal', 'timed_out', 2)
    """

    def __init__(self, noun: str, backoff_prefix: str = "") -> None:
        self.noun = noun
        self.backoff_prefix = backoff_prefix
        self._charges: Dict[Any, _Charges] = {}
        #: (due_monotonic, key) pairs sleeping out a backoff, oldest first.
        self._waiting: List[Tuple[float, Any]] = []

    def open(
        self,
        key: Any,
        policy: FailurePolicy,
        label: str,
        index: Optional[int] = None,
    ) -> None:
        """Start charging ``key`` under ``policy``; its outcome will
        carry ``label`` as key and ``index``."""
        self._charges[key] = _Charges(policy, label, index)

    def attempt(self, key: Any) -> int:
        """The 1-based number of ``key``'s next attempt."""
        return len(self._charges[key].seconds) + 1

    @property
    def next_due(self) -> Optional[float]:
        """The earliest backoff deadline (monotonic), if any."""
        return min((due for due, _ in self._waiting), default=None)

    def due(self) -> List[Any]:
        """Keys whose backoff has elapsed, in the order they began it."""
        now = time.monotonic()
        keys = [key for due, key in self._waiting if due <= now]
        self._waiting = [item for item in self._waiting if item[0] > now]
        return keys

    def settle(self, key: Any, report: Report) -> Verdict:
        """Charge one report to ``key`` and say what happens next."""
        charges = self._charges[key]
        policy = charges.policy
        kind = report[0]
        if kind == "ok":
            charges.seconds.append(report[2])
            charges.error = charges.traceback = None
            return Verdict("ok", charges.outcome(STATUS_OK), report[1])
        exception = charges.traceback = None
        if kind == "crashed":
            charges.seconds.append(report[1])
            charges.crashes += 1
            charges.error = (
                f"worker process died while executing this {self.noun} "
                f"(crash {charges.crashes}/{policy.max_crashes})"
            )
            if charges.crashes >= policy.max_crashes:
                return Verdict("terminal", charges.outcome(STATUS_CRASHED))
            return Verdict("retry")
        if kind == "timeout":
            status = STATUS_TIMED_OUT
            charges.seconds.append(float(policy.timeout_seconds or 0.0))
            charges.error = (
                f"{self.noun} exceeded its "
                f"{policy.timeout_seconds}s wall-clock timeout"
            )
        else:
            status = STATUS_FAILED
            _, charges.error, charges.traceback, exception, elapsed = report
            charges.seconds.append(elapsed)
        charges.failures += 1
        if charges.failures >= policy.max_attempts:
            return Verdict(
                "terminal", charges.outcome(status), exception=exception
            )
        delay = policy.backoff_for(
            charges.failures, key=self.backoff_prefix + charges.label
        )
        if delay <= 0.0:
            return Verdict("retry")
        self._waiting.append((time.monotonic() + delay, key))
        return Verdict("wait")
