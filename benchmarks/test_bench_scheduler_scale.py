"""Scheduler hot-path scale benchmarks: ``select`` on fleet-sized queues.

One ``select`` pass over a deep pending queue on a multi-partition
cluster (1024 classical nodes + 128 GPU nodes + 8 QPU front-ends, ~510
running allocations) — the pattern every experiment funnels through.
The pre-rewrite timeline layer rebuilt the cluster profile per backfill
candidate and rescanned every breakpoint per ``fits``; these benchmarks
track the compiled-profile implementation so regressions show up in
the perf trajectory.

Reference points on this workload (recorded 2026-07, same driver):

==============  ============  ===========  ========
policy/depth    pre-rewrite   compiled     speedup
==============  ============  ===========  ========
easy @ 1k       1.140 s       0.062 s      ~18x
easy @ 5k       1.118 s       0.067 s      ~17x
conservative 1k 11.385 s      0.774 s      ~15x
==============  ============  ===========  ========

The 5k-deep tier multiplies runtime (conservative is inherently
O(queue x breakpoints)); set ``REPRO_BENCH_SCALE=1`` to include it.

``test_bench_allocation_churn`` times the cluster's own allocation
path on a 1024-node partition (seeded random-size allocate/release
cycles) and publishes ``cluster_allocations_per_second``: the
free-node index makes each allocation cost O(nodes granted) instead of
a scan and sort of the whole partition.
"""

import os
import time
from collections import deque

import pytest

from repro.cluster.cluster import Cluster
from repro.cluster.node import GresInstance, Node
from repro.cluster.partition import Partition
from repro.scheduler.backfill import make_policy
from repro.scheduler.job import Job, JobComponent, JobSpec
from repro.sim.kernel import Kernel
from repro.sim.rng import RandomStreams

#: Queue depths exercised; the deep tier is opt-in (env gate) because
#: conservative backfill legitimately does O(depth) timeline work per
#: job and would dominate the default benchmark run.
DEPTHS = [1000, 5000]
DEEP_TIER_ENV = "REPRO_BENCH_SCALE"


def build_fleet_cluster(kernel: Kernel) -> Cluster:
    classical = Partition(
        "classical", [Node(f"cn{i:04d}") for i in range(1024)]
    )
    gpu_nodes = []
    for i in range(128):
        gres = [GresInstance("gpu", j) for j in range(4)]
        gpu_nodes.append(Node(f"gn{i:04d}", gres=gres))
    gpu = Partition("gpu", gpu_nodes)
    quantum = Partition(
        "quantum",
        [
            Node(f"qn{i:02d}", gres=[GresInstance("qpu", 0, device=object())])
            for i in range(8)
        ],
    )
    return Cluster(kernel, [classical, gpu, quantum])


def fill_running(cluster: Cluster, streams: RandomStreams) -> None:
    """~510 running allocations with spread expected ends: the
    breakpoint load a fleet-sized availability profile carries."""
    rng = streams.stream("fill")
    for i in range(450):
        cluster.allocate(
            f"run-{i}", "classical", int(rng.integers(1, 4)),
            walltime=float(rng.uniform(600.0, 86400.0)),
        )
    for i in range(60):
        cluster.allocate(
            f"grun-{i}", "gpu", int(rng.integers(1, 3)),
            gres_request={"gpu": int(rng.integers(1, 5))},
            walltime=float(rng.uniform(600.0, 7200.0)),
        )
    for i in range(4):
        cluster.allocate(
            f"qrun-{i}", "quantum", 1, gres_request={"qpu": 1},
            walltime=float(rng.uniform(1800.0, 7200.0)),
        )


def build_queue(kernel: Kernel, depth: int, streams: RandomStreams):
    """A 900-node blocker followed by a mixed backfill-candidate queue
    (75% small classical, 15% GPU, 10% heterogeneous classical+QPU)."""
    rng = streams.stream("queue")
    jobs = []
    blocker = JobSpec(
        name="blocker",
        components=[JobComponent("classical", 900, 7200.0)],
        duration=3600.0,
    )
    job = Job(blocker, kernel)
    job.submit_time = 0.0
    jobs.append(job)
    for i in range(depth - 1):
        kind = rng.random()
        if kind < 0.75:
            components = [
                JobComponent(
                    "classical", int(rng.integers(1, 5)),
                    float(rng.uniform(300.0, 7200.0)),
                )
            ]
        elif kind < 0.9:
            components = [
                JobComponent(
                    "gpu", int(rng.integers(1, 3)),
                    float(rng.uniform(300.0, 3600.0)),
                    gres={"gpu": int(rng.integers(1, 5))},
                )
            ]
        else:
            components = [
                JobComponent("classical", int(rng.integers(1, 5)), 1800.0),
                JobComponent("quantum", 1, 1800.0, gres={"qpu": 1}),
            ]
        spec = JobSpec(name=f"q{i}", components=components, duration=60.0)
        job = Job(spec, kernel)
        job.submit_time = 0.0
        jobs.append(job)
    return jobs


@pytest.mark.parametrize("depth", DEPTHS)
@pytest.mark.parametrize("policy_name", ["fifo", "easy", "conservative"])
def test_bench_select_scale(run_once, policy_name, depth):
    if depth > 1000 and not os.environ.get(DEEP_TIER_ENV):
        pytest.skip(f"set {DEEP_TIER_ENV}=1 for the {depth}-deep tier")
    # Workload construction stays outside the measured region: the
    # benchmark value is one ``select`` pass, nothing else.
    kernel = Kernel()
    cluster = build_fleet_cluster(kernel)
    streams = RandomStreams(7)
    fill_running(cluster, streams)
    jobs = build_queue(kernel, depth, streams)
    policy = make_policy(policy_name)
    started = run_once(policy.select, jobs, cluster, 0.0)
    if policy_name == "fifo":
        # The 900-node blocker heads the queue: strict FIFO starts nothing.
        assert started == []
    else:
        # Both backfill flavours must fill around the blocker.
        assert len(started) > 0
        assert all(job.spec.name != "blocker" for job in started)


#: Allocate/release cycles in the churn benchmark, and the largest
#: single request (nodes) drawn for one of them.
CHURN_CYCLES = 5000
CHURN_MAX_NODES = 64


def _allocation_churn(cluster, sizes):
    """Allocate each size in turn, first releasing the oldest live
    allocations until the partition can supply it."""
    partition = cluster.partition("classical")
    live = deque()
    started = time.perf_counter()
    for index, size in enumerate(sizes):
        while partition.available_count() < size:
            cluster.release(live.popleft())
        live.append(cluster.allocate(f"churn-{index}", "classical", size))
    elapsed = time.perf_counter() - started
    return len(live), len(sizes) / elapsed


def test_bench_allocation_churn(run_once, bench_record):
    kernel = Kernel()
    cluster = Cluster(
        kernel,
        [Partition("classical", [Node(f"cn{i:04d}") for i in range(1024)])],
    )
    rng = RandomStreams(7).stream("churn")
    sizes = [
        int(size)
        for size in rng.integers(1, CHURN_MAX_NODES + 1, size=CHURN_CYCLES)
    ]
    still_live, per_second = run_once(_allocation_churn, cluster, sizes)
    busy = sum(len(a.nodes) for a in cluster.active_allocations())
    assert cluster.partition("classical").available_count() == 1024 - busy
    assert 0 < still_live <= len(sizes)
    bench_record(cluster_allocations_per_second=round(per_second, 1))
