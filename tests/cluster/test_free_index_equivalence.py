"""Equivalence suite: the partition free-node index vs a full rescan.

``Partition`` answers its capacity queries from an incremental index of
free nodes that the nodes' own mutators keep current.  These tests pin
it to the original semantics:

- ``reference_available_nodes``/``reference_find_nodes`` are a literal
  port of the scan-and-sort implementation the index replaced, and
  serve as the executable specification;
- a property test drives a cluster through random interleavings of
  ``allocate``/``release``/``grow``/``shrink`` and direct node
  ``mark_down``/``mark_up``/``drain``/undrain calls on partitions that
  mix gres and plain nodes listed out of name order, and requires
  identical answers after every step;
- the ``REPRO_TIMELINE_DEBUG`` cross-check raises on a corrupted index.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.cluster.node import GresInstance, Node
from repro.cluster.partition import Partition
from repro.errors import SchedulingError
from repro.scheduler.backfill import TimelineCache
from repro.sim.kernel import Kernel

# -- naive reference (port of the scan-and-sort implementation) ---------------


def reference_available_nodes(partition):
    return [node for node in partition.nodes if node.is_available]


def reference_find_nodes(partition, count, gres_request=None):
    available = reference_available_nodes(partition)
    if len(available) < count:
        return None
    request = dict(gres_request or {})
    if not request:
        return sorted(available, key=lambda n: n.name)[:count]

    def gres_richness(node):
        return sum(len(node.free_gres(t)) for t in request)

    ordered = sorted(available, key=lambda n: (-gres_richness(n), n.name))
    chosen = ordered[:count]
    for gres_type, needed in request.items():
        free_total = sum(len(n.free_gres(gres_type)) for n in chosen)
        if free_total < needed:
            return None
    return chosen


# -- harness -----------------------------------------------------------------

GRES_REQUESTS = [
    None,
    {},
    {"qpu": 1},
    {"qpu": 2},
    {"gpu": 1},
    {"qpu": 1, "gpu": 1},
    {"qpu": 3, "gpu": 2},
]


def assert_index_matches_reference(partition):
    rescanned = reference_available_nodes(partition)
    indexed = partition.available_nodes()
    assert indexed == sorted(rescanned, key=lambda n: n.name)
    assert partition.available_count() == len(rescanned)
    for count in range(partition.node_count + 2):
        for request in GRES_REQUESTS:
            assert partition.find_nodes(count, request) == (
                reference_find_nodes(partition, count, request)
            ), (count, request)


@st.composite
def partitions(draw):
    """Nodes ``n0..n{k-1}`` listed in a drawn order (so ``n10`` may sit
    before ``n9``), each with 0-2 QPU and 0-1 GPU gres units."""
    size = draw(st.integers(min_value=1, max_value=14))
    order = draw(st.permutations(range(size)))
    nodes = []
    for index in order:
        qpus = draw(st.integers(min_value=0, max_value=2))
        gpus = draw(st.integers(min_value=0, max_value=1))
        gres = [GresInstance("qpu", i) for i in range(qpus)]
        gres += [GresInstance("gpu", i) for i in range(gpus)]
        nodes.append(Node(f"n{index}", gres=gres))
    return Partition("p", nodes)


OPS = [
    "allocate",
    "release",
    "grow",
    "shrink",
    "mark_down",
    "mark_up",
    "drain",
    "undrain",
]


@given(partition=partitions(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_index_matches_rescan_under_random_interleavings(partition, data):
    cluster = Cluster(Kernel(), [partition])
    live = []
    serial = 0
    assert_index_matches_reference(partition)
    for _ in range(data.draw(st.integers(min_value=1, max_value=30))):
        op = data.draw(st.sampled_from(OPS))
        if op == "allocate":
            count = data.draw(st.integers(min_value=1, max_value=4))
            request = data.draw(st.sampled_from(GRES_REQUESTS))
            if reference_find_nodes(partition, count, request) is None:
                continue
            serial += 1
            live.append(
                cluster.allocate(f"job-{serial}", "p", count, request)
            )
        elif op in ("release", "grow", "shrink"):
            if not live:
                continue
            allocation = data.draw(st.sampled_from(live))
            if op == "release":
                live.remove(allocation)
                cluster.release(allocation)
            elif op == "grow":
                count = data.draw(st.integers(min_value=1, max_value=3))
                if reference_find_nodes(partition, count) is None:
                    continue
                cluster.grow(allocation, count)
            elif allocation.nodes:
                count = data.draw(
                    st.integers(min_value=1, max_value=len(allocation.nodes))
                )
                cluster.shrink(allocation, count)
        else:
            node = data.draw(st.sampled_from(partition.nodes))
            if op == "mark_down":
                evicted = node.mark_down()
                if evicted is not None:
                    # Mirror the scheduler: drop the failed node from the
                    # evicted job's allocation, release the rest.
                    allocation = next(
                        a for a in live if a.job_id == evicted
                    )
                    live.remove(allocation)
                    allocation.remove_nodes([node])
                    cluster.release(allocation)
            elif op == "drain":
                node.drain()
            else:
                # mark_up doubles as undrain on an allocated node.
                node.mark_up()
        assert_index_matches_reference(partition)


# -- contracts ---------------------------------------------------------------


def test_available_nodes_are_in_name_order():
    partition = Partition("p", [Node("n9"), Node("n10"), Node("a")])
    assert [n.name for n in partition.available_nodes()] == ["a", "n10", "n9"]
    assert [n.name for n in partition.find_nodes(2)] == ["a", "n10"]


def test_gres_ties_break_by_name():
    partition = Partition(
        "p",
        [
            Node("q2", gres=[GresInstance("qpu", 0)]),
            Node("plain"),
            Node("q1", gres=[GresInstance("qpu", 0)]),
        ],
    )
    chosen = partition.find_nodes(3, {"qpu": 1})
    assert [n.name for n in chosen] == ["q1", "q2", "plain"]


def test_debug_cross_check_catches_a_corrupted_index():
    partition = Partition("p", [Node(f"n{i}") for i in range(4)])
    cluster = Cluster(Kernel(), [partition])
    cache = TimelineCache(cluster, debug=True)
    cache.timeline(cluster, 0.0)
    partition._free.pop()
    with pytest.raises(SchedulingError, match="free-node index"):
        cache.timeline(cluster, 0.0)
