"""Microbenchmarks of the discrete-event kernel itself.

These are throughput benchmarks (events/second) rather than paper
artefacts: they justify the simulator's scalability claims and guard
against performance regressions in the hot path.

Like the artefact benchmarks, each workload runs exactly once
(``run_once``): the recorded wall time is a single honest execution,
not a calibrated mean whose floor is pytest-benchmark's minimum
measurement window.  The million-event tier additionally publishes a
``kernel_events_per_second`` metric through ``bench_record`` so raw
kernel throughput is tracked across PRs as a first-class number.
"""

import time

from repro.sim.kernel import Kernel
from repro.sim.store import Store

EVENTS = 20000

#: Event count for the throughput tier: one million timeout events
#: driven through a single process.
MILLION = 1_000_000


def _timeout_churn():
    kernel = Kernel()

    def ticker(k, count):
        for _ in range(count):
            yield k.timeout(1.0)

    kernel.process(ticker(kernel, EVENTS))
    kernel.run()
    return kernel.now


def _resource_contention():
    """25 users contend for 4 slots: a store pre-filled with 4 tokens,
    ``get`` to acquire and ``put`` to release."""
    kernel = Kernel()
    slots = Store(kernel)
    for token in range(4):
        slots.put(token)

    def user(k):
        for _ in range(200):
            token = yield slots.get()
            yield k.timeout(1.0)
            slots.put(token)

    for _ in range(25):
        kernel.process(user(kernel))
    kernel.run()
    return kernel.now


def _producer_consumer():
    kernel = Kernel()
    store = Store(kernel, capacity=16)
    total = 10000

    def producer(k):
        for index in range(total):
            yield store.put(index)

    def consumer(k):
        for _ in range(total):
            yield store.get()

    kernel.process(producer(kernel))
    kernel.process(consumer(kernel))
    kernel.run()
    return store.size


def _object_churn():
    """Allocation-heavy pattern: many short-lived processes, events and
    conditions.  Sensitive to per-instance overhead (every sim-core
    class is slotted: Event/Timeout/Process/Condition/Kernel)."""
    kernel = Kernel()
    spawned = 8000

    def short_lived(k):
        done = k.event()
        done.succeed()
        yield k.all_of([done, k.timeout(0.5)])

    def spawner(k):
        for _ in range(spawned):
            yield k.process(short_lived(k))

    kernel.process(spawner(kernel))
    kernel.run()
    return kernel.now


def _million_events():
    """The throughput tier: 1M timeout events through one process.

    Returns ``(final_time, events_per_second)`` where the rate covers
    only the :meth:`Kernel.run` drain (timer around the event loop, not
    generator construction), making the published metric a direct
    measure of kernel event throughput.
    """
    kernel = Kernel()

    def ticker(k, count):
        for _ in range(count):
            yield k.timeout(1.0)

    kernel.process(ticker(kernel, MILLION))
    started = time.perf_counter()
    kernel.run()
    elapsed = time.perf_counter() - started
    return kernel.now, MILLION / elapsed


def test_bench_kernel_object_churn(run_once):
    result = run_once(_object_churn)
    assert result == 8000 * 0.5


def test_bench_kernel_timeout_churn(run_once):
    result = run_once(_timeout_churn)
    assert result == EVENTS


def test_bench_kernel_resource_contention(run_once):
    result = run_once(_resource_contention)
    assert result == 25 * 200 / 4  # perfect pipelining at capacity 4


def test_bench_kernel_producer_consumer(run_once):
    result = run_once(_producer_consumer)
    assert result == 0


def test_bench_kernel_million_events(run_once, bench_record):
    final_time, events_per_second = run_once(_million_events)
    assert final_time == float(MILLION)
    bench_record(kernel_events_per_second=round(events_per_second, 1))
