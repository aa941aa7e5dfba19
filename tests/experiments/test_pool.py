"""The process-pool supervisor's own contract: reports, shutdown and
refusals (sweeps and campaign stages test it end to end)."""

import multiprocessing
import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments import pool as pool_module
from repro.experiments.pool import PoolSupervisor


def _drain_all(supervisor):
    reports = {}
    while supervisor.pending:
        for key, report in supervisor.drain():
            reports[key] = report
    return reports


def test_only_the_solo_crasher_is_reported_crashed():
    supervisor = PoolSupervisor(2)
    try:
        supervisor.submit("innocent", time.sleep, (0.5,))
        supervisor.submit("killer", os._exit, (1,))
        reports = _drain_all(supervisor)
    finally:
        supervisor.stop()
    assert reports["innocent"][:2] == ("ok", None)
    assert reports["killer"][0] == "crashed"
    assert not multiprocessing.active_children()


def test_stop_kills_work_in_flight():
    supervisor = PoolSupervisor(2)
    supervisor.submit("a", time.sleep, (30.0,))
    supervisor.submit("b", time.sleep, (30.0,))
    start = time.monotonic()
    supervisor.stop()
    assert time.monotonic() - start < 10.0
    assert supervisor.pending == 0
    assert not multiprocessing.active_children()


def test_a_pool_that_keeps_refusing_work_raises(monkeypatch):
    def closed_pool(max_workers):
        executor = ProcessPoolExecutor(max_workers=max_workers)
        executor.shutdown()
        return executor

    monkeypatch.setattr(pool_module, "_process_pool", closed_pool)
    supervisor = PoolSupervisor(1)
    try:
        with pytest.raises(RuntimeError, match="shutdown"):
            supervisor.submit("a", time.sleep, (0.0,))
    finally:
        supervisor.stop()


def test_worker_that_died_idle_is_replaced():
    supervisor = PoolSupervisor(2)
    try:
        supervisor.submit("a", divmod, (7, 2))
        assert supervisor.drain()[0][1][:2] == ("ok", (3, 1))
        victim = multiprocessing.active_children()[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=5.0)
        time.sleep(0.5)  # let the executor notice the dead worker
        supervisor.submit("b", divmod, (9, 4))
        [(key, report)] = supervisor.drain()
    finally:
        supervisor.stop()
    assert (key, report[:2]) == ("b", ("ok", (2, 1)))
    assert not multiprocessing.active_children()


class TestInProcess:
    def test_inline_tasks_run_in_submission_order_one_per_drain(self):
        calls = []
        supervisor = PoolSupervisor(1, in_process=True)
        for key in "cab":
            supervisor.submit(key, calls.append, (key,))
        assert calls == []  # submit only queues
        drained = []
        while supervisor.pending:
            reports = supervisor.drain()
            assert len(reports) == 1
            drained.append(reports[0][0])
        assert drained == calls == ["c", "a", "b"]
        assert not multiprocessing.active_children()

    def test_inline_task_sees_the_callers_objects(self):
        # No pickling: the task gets the very object submitted.
        box = []
        supervisor = PoolSupervisor(1, in_process=True)
        supervisor.submit("a", box.append, (1,))
        assert supervisor.drain()[0][1][:2] == ("ok", None)
        assert box == [1]

    def test_inline_error_report_carries_the_original_exception(self):
        error = ValueError("boom")

        def fail():
            raise error

        supervisor = PoolSupervisor(1, in_process=True)
        supervisor.submit("a", fail)
        [(key, report)] = supervisor.drain()
        assert report[:2] == ("err", "ValueError: boom")
        assert report[3] is error

    def test_task_with_deadline_times_out_in_a_killed_pool(self):
        supervisor = PoolSupervisor(1, in_process=True)
        try:
            supervisor.submit("hang", time.sleep, (30.0,), timeout=0.5)
            supervisor.submit("inline", os.getpid)
            start = time.monotonic()
            reports = _drain_all(supervisor)
        finally:
            supervisor.stop()
        assert time.monotonic() - start < 10.0
        assert reports["hang"][0] == "timeout"
        assert reports["inline"][:2] == ("ok", os.getpid())
        assert not multiprocessing.active_children()

    def test_task_with_deadline_that_finishes_runs_in_a_child(self):
        supervisor = PoolSupervisor(1, in_process=True)
        try:
            supervisor.submit("pid", os.getpid, timeout=30.0)
            [(key, report)] = supervisor.drain()
        finally:
            supervisor.stop()
        assert report[0] == "ok" and report[1] != os.getpid()
        assert not multiprocessing.active_children()

    def test_stop_forgets_queued_inline_work(self):
        calls = []
        supervisor = PoolSupervisor(1, in_process=True)
        supervisor.submit("a", calls.append, ("a",))
        supervisor.submit("b", calls.append, ("b",))
        supervisor.stop()
        assert supervisor.pending == 0
        assert supervisor.drain() == []
        assert calls == []
        # A stopped supervisor may be used again.
        supervisor.submit("c", calls.append, ("c",))
        assert [key for key, _ in supervisor.drain()] == ["c"]
        assert calls == ["c"]

    def test_keyboard_interrupt_propagates(self):
        def interrupt():
            raise KeyboardInterrupt

        supervisor = PoolSupervisor(1, in_process=True)
        supervisor.submit("a", interrupt)
        supervisor.submit("b", os.getpid)
        with pytest.raises(KeyboardInterrupt):
            supervisor.drain()
        # The interrupted task is gone; the rest stays queued.
        assert supervisor.pending == 1
        supervisor.stop()
        assert supervisor.pending == 0


def _pool_in_state(state):
    """A two-worker pool, both workers started, left ``idle``,
    ``busy`` on long sleeps or ``broken`` by a worker's hard exit."""
    pool = pool_module._process_pool(2)
    warm = [pool.submit(time.sleep, 0.2) for _ in range(2)]
    for future in warm:
        future.result(timeout=30.0)
    if state == "busy":
        pool.submit(time.sleep, 30.0)
        pool.submit(time.sleep, 30.0)
        time.sleep(0.2)
    elif state == "broken":
        crash = pool.submit(os._exit, 1)
        with pytest.raises(BrokenProcessPool):
            crash.result(timeout=30.0)
    return pool


@pytest.mark.parametrize("state", ["idle", "busy", "broken"])
def test_terminate_pool_returns_with_every_worker_reaped(state):
    pool = _pool_in_state(state)
    processes = list(pool._processes.values())
    assert len(processes) == 2
    start = time.monotonic()
    pool_module._terminate_pool(pool)
    assert time.monotonic() - start < 10.0
    assert all(process.exitcode is not None for process in processes)
    assert not multiprocessing.active_children()
