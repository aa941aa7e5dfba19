"""The process-pool supervisor's own contract: reports, shutdown and
refusals (sweeps and campaign stages test it end to end)."""

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

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
