"""Leased workers draining the store's submission queue.

The ``submissions`` table *is* the queue; :meth:`~repro.store.api.
ResultStore.run_claimed_submission` is the worker body.  What this
module adds is the lifecycle around it:

- :class:`Worker` — claim the oldest claimable submission (atomic
  ``BEGIN IMMEDIATE``; pending, or running with an expired lease),
  heartbeat from a side thread to keep the lease alive, execute the
  store-backed sweep, release with a fenced update.  An idle worker
  blocks on its doorbell (:mod:`repro.store.wake`), which every
  submit and drain requeue rings.  A worker that dies mid-run simply
  stops heartbeating; after one lease window the submission is
  claimable again and the next worker resumes it, re-executing
  **only** points whose commits never landed (the store's per-point
  transactions make re-entry free).
- :func:`run_worker` — one worker as a process runs it: SIGTERM and
  SIGINT drain it, and it returns an exit code.  The ``worker`` verb
  and every supervised worker run it.
- :class:`WorkerSupervisor` — N forked workers with bounded
  restart-on-crash and graceful SIGTERM drain (each worker finishes
  its current *point*, requeues the submission, exits 0).

Runner resolution: a submission records its runner as the
``module:qualname`` string :func:`~repro.experiments.sweep.
runner_name` produces; :func:`resolve_runner` imports it back, so any
worker process with the right code checkout can execute any
submission.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import signal
import socket
import sys
import threading
import time
import traceback
import uuid
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import (
    LeaseLostError,
    ReproError,
    ServiceError,
    WorkerDrainError,
)
from repro.experiments.pool import exit_with_parent, fork_context
from repro.store import ResultStore
from repro.store.api import (
    DEFAULT_LEASE_SECONDS,
    DEFAULT_MAX_CLAIMS,
    DEFAULT_SHARD_POINTS,
)
from repro.store.wake import Doorbell

#: Longest an idle worker waits on its doorbell before re-checking
#: the queue anyway.  Submits and drain requeues ring the doorbell, so
#: this only bounds how late an expired lease (a dead peer's
#: submission) or a missed ring is noticed.
DEFAULT_POLL_SECONDS = 0.5

#: Heartbeats per lease window — 4 extensions before expiry leaves
#: room for a slow commit without risking a spurious takeover.
HEARTBEATS_PER_LEASE = 4

#: Signals a worker takes as "drain now".
DRAIN_SIGNALS = frozenset({signal.SIGTERM, signal.SIGINT})


def default_worker_id() -> str:
    """A globally distinguishable worker identity (host:pid:nonce)."""
    return f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:8]}"


def resolve_runner(name: str) -> Any:
    """Import the runner a submission recorded (``module:qualname``).

    The inverse of :func:`~repro.experiments.sweep.runner_name` —
    raises :class:`~repro.errors.ServiceError` (never crashes the
    worker loop) when the module or attribute is missing in this
    checkout, so an unresolvable submission fails cleanly.

    >>> resolve_runner("repro.experiments.sweep:canonical_params").__name__
    'canonical_params'
    """
    module_name, sep, qualname = name.partition(":")
    if not sep or not module_name or not qualname:
        raise ServiceError(
            f"runner {name!r} is not a module:qualname reference"
        )
    try:
        target: Any = importlib.import_module(module_name)
    except ImportError as exc:
        raise ServiceError(
            f"cannot import runner module {module_name!r}: {exc}"
        ) from exc
    for part in qualname.split("."):
        try:
            target = getattr(target, part)
        except AttributeError:
            raise ServiceError(
                f"runner {name!r} does not resolve: {module_name} has "
                f"no attribute path {qualname!r}"
            ) from None
    if not callable(target):
        raise ServiceError(f"runner {name!r} resolved to a non-callable")
    return target


class _Heartbeat:
    """Side thread extending one submission's lease until stopped.

    Uses its *own* store handle (own SQLite connection, own shared
    flock) so it never races the executing thread's transactions.
    A heartbeat that comes back unheld sets :attr:`lost`; the worker's
    ``on_outcome`` hook checks it between points and aborts.
    """

    def __init__(
        self,
        directory: os.PathLike,
        submission_id: int,
        worker_id: str,
        lease_seconds: float,
        code_version: Optional[str],
    ) -> None:
        self.directory = directory
        self.submission_id = submission_id
        self.worker_id = worker_id
        self.lease_seconds = lease_seconds
        self.code_version = code_version
        self.interval = max(
            lease_seconds / HEARTBEATS_PER_LEASE, 0.02
        )
        self.lost = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="lease-heartbeat", daemon=True
        )

    def start(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=max(self.interval * 4, 5.0))

    def _run(self) -> None:
        store = ResultStore(
            self.directory,
            code_version=self.code_version,
            shared_writer=True,
        )
        try:
            while not self._stop.wait(self.interval):
                held = store.heartbeat_submission(
                    self.submission_id,
                    self.worker_id,
                    lease_seconds=self.lease_seconds,
                )
                if not held:
                    self.lost.set()
                    return
        except ReproError:  # pragma: no cover - e.g. store torn down
            self.lost.set()
        finally:
            store.close()


class Worker:
    """One queue-draining worker over a shared-lock store handle.

    The loop: claim → execute (with heartbeats) → release → repeat;
    idle, it waits on its doorbell until a submit or requeue rings it,
    re-checking at least every ``poll_seconds``.  :meth:`stop` (wired
    to SIGTERM by the CLI) drains gracefully: the current point
    finishes and commits, the submission is requeued as ``pending``,
    the loop exits.
    """

    def __init__(
        self,
        directory: os.PathLike,
        worker_id: Optional[str] = None,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        poll_seconds: float = DEFAULT_POLL_SECONDS,
        max_claims: Optional[int] = DEFAULT_MAX_CLAIMS,
        point_workers: Optional[int] = 1,
        shard_points: int = DEFAULT_SHARD_POINTS,
        code_version: Optional[str] = None,
    ) -> None:
        self.directory = Path(directory)
        self.worker_id = worker_id or default_worker_id()
        self.lease_seconds = lease_seconds
        self.poll_seconds = poll_seconds
        self.max_claims = max_claims
        self.point_workers = point_workers
        self.shard_points = shard_points
        self.store = ResultStore(
            self.directory, code_version=code_version, shared_writer=True
        )
        self._stop = threading.Event()
        self._doorbell: Optional[Doorbell] = None

    # -- lifecycle -----------------------------------------------------------

    def stop(self) -> None:
        """Request a graceful drain (safe from signal handlers)."""
        self._stop.set()
        doorbell = self._doorbell
        if doorbell is not None:
            doorbell.ring()

    def close(self) -> None:
        doorbell, self._doorbell = self._doorbell, None
        if doorbell is not None:
            doorbell.close()
        self.store.close()

    def __enter__(self) -> "Worker":
        self.store.open()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- the loop ------------------------------------------------------------

    def run(
        self,
        max_submissions: Optional[int] = None,
        until_drained: bool = False,
        timeout: Optional[float] = None,
    ) -> int:
        """Drain the queue; returns the number of submissions executed.

        ``max_submissions`` bounds the executions; ``until_drained``
        exits once no submission is pending or running (waiting out
        live peers' leases); ``timeout`` bounds the wall clock.  With
        none of the three, runs until :meth:`stop` — service mode.
        """
        executed = 0
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        # The doorbell exists before the first claim, so a submit that
        # commits after a claim found nothing always finds it to ring.
        if self._doorbell is None:
            try:
                self._doorbell = Doorbell(self.directory)
            except (AttributeError, OSError):
                pass  # no FIFOs on this platform or filesystem: poll
        while not self._stop.is_set():
            record = self.claim()
            if record is not None:
                if self.execute(record):
                    executed += 1
                if (
                    max_submissions is not None
                    and executed >= max_submissions
                ):
                    break
                continue
            if until_drained and self._drained():
                break
            if deadline is not None and time.monotonic() >= deadline:
                break
            if self._doorbell is not None:
                self._doorbell.wait(self.poll_seconds)
            else:
                self._stop.wait(self.poll_seconds)
        return executed

    def _drained(self) -> bool:
        summary = self.store.queue_summary()
        return summary["pending"] == 0 and summary["running"] == 0

    # -- one submission ------------------------------------------------------

    def claim(
        self, submission_id: Optional[int] = None
    ) -> Optional[Dict[str, Any]]:
        """Lease the oldest claimable submission — or, given an id,
        that one only; ``None`` if there is nothing to claim."""
        return self.store.claim_next_submission(
            self.worker_id,
            lease_seconds=self.lease_seconds,
            max_claims=self.max_claims,
            submission_id=submission_id,
        )

    def execute(self, record: Dict[str, Any]) -> bool:
        """Run one claimed submission; ``True`` if it reached a
        terminal state under our lease (``False``: requeued on drain,
        or fenced off after losing the lease)."""
        submission_id = record["id"]
        try:
            runner = resolve_runner(record["runner"])
        except ServiceError as exc:
            self.store.release_submission(
                submission_id, self.worker_id, "failed", error=str(exc)
            )
            return True
        heartbeat = _Heartbeat(
            self.directory,
            submission_id,
            self.worker_id,
            self.lease_seconds,
            self.store.code_version,
        ).start()

        def on_outcome(point: Any, outcome: Any) -> None:
            # Runs after the point's value and outcome committed —
            # aborting here never loses work.
            if heartbeat.lost.is_set():
                raise LeaseLostError(
                    f"lease on submission {submission_id} was lost by "
                    f"{self.worker_id}; another worker owns it now"
                )
            if self._stop.is_set():
                raise WorkerDrainError(
                    f"worker {self.worker_id} draining; requeueing "
                    f"submission {submission_id}"
                )

        try:
            self.store.run_claimed_submission(
                submission_id,
                runner,
                self.worker_id,
                workers=self.point_workers,
                shard_points=self.shard_points,
                on_outcome=on_outcome,
            )
            return True
        except (WorkerDrainError, LeaseLostError):
            return False
        except ReproError:
            # run_claimed_submission already released the lease into
            # 'failed' with the error text; the pool stays alive.
            return True
        except Exception:
            # A runner's own bug (a TypeError, say): the submission is
            # 'failed' already, as above; show why and keep draining.
            traceback.print_exc()
            return True
        finally:
            heartbeat.stop()


def run_worker(
    directory: os.PathLike,
    worker_id: Optional[str] = None,
    max_submissions: Optional[int] = None,
    until_drained: bool = False,
    timeout: Optional[float] = None,
    **options: Any,
) -> int:
    """One queue-draining worker until SIGTERM/SIGINT or a bound;
    returns its exit code.

    The body of the ``worker`` verb and of every supervised worker.
    SIGTERM/SIGINT request a graceful drain (:meth:`Worker.stop`);
    they are unblocked only once that handler is installed, so a
    signal that reached a freshly forked worker (which starts with
    them blocked) waits for it.  ``options`` go to :class:`Worker`,
    whose construction errors propagate; errors while draining print
    and return 1.
    """
    worker = Worker(directory, worker_id=worker_id, **options)

    def _request_stop(signum: int, frame: Any) -> None:
        worker.stop()

    for signum in DRAIN_SIGNALS:
        signal.signal(signum, _request_stop)
    if hasattr(signal, "pthread_sigmask"):
        signal.pthread_sigmask(signal.SIG_UNBLOCK, DRAIN_SIGNALS)
    print(f"[worker] {worker.worker_id} draining {directory}", flush=True)
    try:
        with worker:
            executed = worker.run(
                max_submissions=max_submissions,
                until_drained=until_drained,
                timeout=timeout,
            )
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"[worker] {worker.worker_id} exiting ({executed} executed)")
    return 0


def _supervised_worker(
    directory: Path,
    index: int,
    parent_pid: int,
    close_first: Tuple[Any, ...],
    lease_seconds: float,
    poll_seconds: float,
) -> None:
    """A forked worker's entry point (SIGTERM/SIGINT arrive blocked).

    The fork guard (:func:`repro.store.db._register_fork_guard`) has
    already dropped the parent's store handles; the child closes its
    copies of the parent's listeners, watches the parent, and takes
    an identity carrying its own pid.
    """
    for listener in close_first:
        listener.close()
    exit_with_parent(parent_pid)
    sys.exit(
        run_worker(
            directory,
            worker_id=f"{default_worker_id()}#w{index}",
            lease_seconds=lease_seconds,
            poll_seconds=poll_seconds,
        )
    )


class WorkerSupervisor:
    """N forked workers draining one store, restart on crash.

    Processes (not threads): a worker taken out by a fault dies alone,
    its flock and lease die with it, and the supervisor replaces it —
    up to ``restart_limit`` replacements, so a systematically crashing
    fleet stops instead of looping (poison *submissions* are already
    contained by the store's claim cap).  Each worker is a fork of the
    supervising process running :func:`run_worker`, so it starts with
    the code that process has imported and exits when that process
    dies.  Fork only from a thread that no other thread can race into
    the store: ``serve`` forks from its main thread, under the
    service mutex.

    :meth:`drain` implements graceful shutdown: SIGTERM to every
    worker (each finishes its current point and requeues), bounded
    wait, SIGKILL stragglers.
    """

    def __init__(
        self,
        directory: os.PathLike,
        workers: int,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        poll_seconds: float = DEFAULT_POLL_SECONDS,
        restart_limit: Optional[int] = None,
    ) -> None:
        if workers < 0:
            raise ServiceError("workers must be >= 0")
        self.directory = Path(directory)
        self.workers = workers
        self.lease_seconds = lease_seconds
        self.poll_seconds = poll_seconds
        self.restart_limit = (
            restart_limit if restart_limit is not None else workers * 8
        )
        #: Objects every forked worker closes first: the listening
        #: socket of the server it runs beside.
        self.close_in_child: List[Any] = []
        self.restarts = 0
        self.draining = False
        self._context = fork_context()
        self._procs: List[multiprocessing.process.BaseProcess] = []

    # -- process management --------------------------------------------------

    def _spawn(self, index: int) -> multiprocessing.process.BaseProcess:
        proc = self._context.Process(
            target=_supervised_worker,
            args=(
                self.directory,
                index,
                os.getpid(),
                tuple(self.close_in_child),
                self.lease_seconds,
                self.poll_seconds,
            ),
            name=f"repro-worker-{index}",
        )
        # Blocked across the fork, so the child cannot run this
        # process's handlers (serve's drain) before installing its own.
        if hasattr(signal, "pthread_sigmask"):
            previous = signal.pthread_sigmask(
                signal.SIG_BLOCK, DRAIN_SIGNALS
            )
            try:
                proc.start()
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, previous)
        else:  # pragma: no cover - non-POSIX platforms
            proc.start()
        return proc

    def start(self) -> "WorkerSupervisor":
        for index in range(self.workers):
            self._procs.append(self._spawn(index))
        return self

    def poll(self) -> int:
        """Reap dead workers, replace them (bounded); returns the
        number currently alive."""
        for index, proc in enumerate(self._procs):
            if self.draining or proc.is_alive():
                continue
            if self.restarts >= self.restart_limit:
                continue
            self.restarts += 1
            self._procs[index] = self._spawn(index)
        return self.alive_count()

    def alive_count(self) -> int:
        return sum(1 for proc in self._procs if proc.is_alive())

    def drain(self, timeout: float = 30.0) -> None:
        """SIGTERM every worker, wait out the graceful window, then
        SIGKILL what is left.  Idempotent."""
        self.draining = True
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        deadline = time.monotonic() + timeout
        for proc in self._procs:
            proc.join(max(deadline - time.monotonic(), 0.1))
            if proc.exitcode is None:
                proc.kill()
                proc.join()
