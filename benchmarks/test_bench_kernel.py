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

import gc
import time

from repro.scenarios import ScenarioSpec, TopologySpec, build
from repro.sim.kernel import Kernel
from repro.sim.store import Store
from repro.workloads.generator import submit_trace
from repro.workloads.swf import TraceJob

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


#: Trace-arrival tier: a long background trace of which the run reaches
#: only the first :data:`TRACE_FIRED` jobs (5%), as a campaign that
#: stops long before its background horizon does.
TRACE_JOBS = 20_000
TRACE_FIRED = 1_000


def _trace_arrivals():
    """Install a 20,000-job trace (one 1-node, 30 s job a minute on 64
    nodes) and run until the first 5% have been submitted.

    Returns ``(submitted, pending_after_install, gc_collections)``:
    the kernel's live events added by the install once its arrival
    process has started, and the cyclic-GC collections (all
    generations) over install plus run.
    """
    env = build(ScenarioSpec(topology=TopologySpec(classical_nodes=64)))
    kernel = env.kernel
    kernel.run(until=0.0)
    trace = [
        TraceJob(index, 60.0 * index, 30.0, 1, 60.0)
        for index in range(1, TRACE_JOBS + 1)
    ]
    collections = sum(stat["collections"] for stat in gc.get_stats())
    before = kernel.queued_event_count
    jobs = submit_trace(env, trace)
    kernel.run(until=0.0)
    pending = kernel.queued_event_count - before
    kernel.run(until=60.0 * TRACE_FIRED)
    collections = (
        sum(stat["collections"] for stat in gc.get_stats()) - collections
    )
    return len(jobs), pending, collections


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


def test_bench_kernel_trace_arrivals(run_once, bench_record):
    submitted, pending, collections = run_once(_trace_arrivals)
    assert submitted == TRACE_FIRED
    bench_record(
        trace_pending_events_after_install=pending,
        trace_gc_collections=collections,
    )
