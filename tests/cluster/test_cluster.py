"""Tests for the cluster: allocation, release, shrink/grow, monitors."""

import pytest

from repro.cluster.builders import build_hpcqc_cluster
from repro.cluster.cluster import Cluster
from repro.cluster.node import Node
from repro.cluster.partition import Partition
from repro.errors import AllocationError, ConfigurationError
from repro.sim.kernel import Kernel


@pytest.fixture
def cluster(kernel):
    return build_hpcqc_cluster(
        kernel, classical_nodes=4, qpu_devices=["qpu-device-0"]
    )


class TestConstruction:
    def test_needs_partitions(self, kernel):
        with pytest.raises(ConfigurationError):
            Cluster(kernel, [])

    def test_duplicate_partition_names_rejected(self, kernel):
        partitions = [
            Partition("p", [Node("a")]),
            Partition("p", [Node("b")]),
        ]
        with pytest.raises(ConfigurationError):
            Cluster(kernel, partitions)

    def test_unknown_partition_lookup(self, cluster):
        with pytest.raises(ConfigurationError):
            cluster.partition("nope")

    def test_total_nodes(self, cluster):
        assert cluster.total_nodes() == 5  # 4 classical + 1 quantum front-end


class TestAllocateRelease:
    def test_basic_allocation(self, cluster):
        allocation = cluster.allocate("job-1", "classical", 2, walltime=60)
        assert allocation.node_count == 2
        assert allocation.expected_end == 60.0
        assert len(cluster.active_allocations()) == 1

    def test_gres_allocation_binds_device(self, cluster):
        allocation = cluster.allocate(
            "job-1", "quantum", 1, gres_request={"qpu": 1}
        )
        assert allocation.gres_devices("qpu") == ["qpu-device-0"]
        assert allocation.gres_counts() == {"qpu": 1}

    def test_over_allocation_raises(self, cluster):
        cluster.allocate("job-1", "classical", 4)
        with pytest.raises(AllocationError):
            cluster.allocate("job-2", "classical", 1)

    def test_release_returns_nodes(self, cluster):
        allocation = cluster.allocate("job-1", "classical", 4)
        cluster.release(allocation)
        assert cluster.can_allocate("classical", 4)
        assert allocation.released
        assert allocation.end_time == 0.0

    def test_double_release_rejected(self, cluster):
        allocation = cluster.allocate("job-1", "classical", 1)
        cluster.release(allocation)
        with pytest.raises(AllocationError):
            cluster.release(allocation)

    def test_can_allocate(self, cluster):
        assert cluster.can_allocate("classical", 4)
        assert not cluster.can_allocate("classical", 5)
        assert cluster.can_allocate("quantum", 1, {"qpu": 1})
        assert not cluster.can_allocate("quantum", 1, {"qpu": 2})

    def test_no_walltime_means_infinite_expected_end(self, cluster):
        allocation = cluster.allocate("job-1", "classical", 1)
        assert allocation.expected_end == float("inf")


class TestShrinkGrow:
    def test_shrink_releases_nodes(self, cluster):
        allocation = cluster.allocate("job-1", "classical", 4)
        released = cluster.shrink(allocation, 3)
        assert len(released) == 3
        assert allocation.node_count == 1
        assert cluster.partition("classical").available_count() == 3

    def test_shrink_prefers_gres_free_nodes(self, kernel):
        cluster = build_hpcqc_cluster(kernel, 2, ["dev0", "dev1"])
        # Two quantum front-end nodes; gres granted on one of them.
        allocation = cluster.allocate(
            "job-1", "quantum", 2, gres_request={"qpu": 1}
        )
        released = cluster.shrink(allocation, 1)
        # The node still holding the gres unit must be kept.
        gres_nodes = {g.node for g in allocation.gres}
        assert released[0] not in gres_nodes
        assert allocation.node_count == 1

    def test_shrink_out_of_range(self, cluster):
        allocation = cluster.allocate("job-1", "classical", 2)
        with pytest.raises(AllocationError):
            cluster.shrink(allocation, 0)
        with pytest.raises(AllocationError):
            cluster.shrink(allocation, 3)

    def test_shrink_released_allocation_rejected(self, cluster):
        allocation = cluster.allocate("job-1", "classical", 2)
        cluster.release(allocation)
        with pytest.raises(AllocationError):
            cluster.shrink(allocation, 1)

    def test_grow_attaches_nodes(self, cluster):
        allocation = cluster.allocate("job-1", "classical", 1)
        added = cluster.grow(allocation, 2)
        assert len(added) == 2
        assert allocation.node_count == 3
        for node in added:
            assert node.allocated_to == "job-1"

    def test_grow_beyond_capacity_rejected(self, cluster):
        allocation = cluster.allocate("job-1", "classical", 3)
        with pytest.raises(AllocationError):
            cluster.grow(allocation, 2)

    def test_shrink_then_release_is_consistent(self, cluster):
        allocation = cluster.allocate("job-1", "classical", 4)
        cluster.shrink(allocation, 2)
        cluster.release(allocation)
        assert cluster.partition("classical").available_count() == 4


class TestUtilisationMonitors:
    def test_node_utilisation_half(self, kernel, cluster):
        allocation = cluster.allocate("job-1", "classical", 2, walltime=100)

        def proc(k):
            yield k.timeout(100.0)
            cluster.release(allocation)
            yield k.timeout(100.0)

        kernel.process(proc(kernel))
        kernel.run()
        # 2 of 4 nodes for half the window: 25% average.
        assert cluster.node_utilisation("classical") == pytest.approx(0.25)

    def test_node_utilisation_follows_shrink_and_grow(self, kernel, cluster):
        allocation = cluster.allocate("job-1", "classical", 4)

        def proc(k):
            yield k.timeout(50.0)
            cluster.shrink(allocation, 3)
            yield k.timeout(50.0)
            cluster.grow(allocation, 1)
            yield k.timeout(50.0)
            cluster.release(allocation)
            yield k.timeout(50.0)

        kernel.process(proc(kernel))
        kernel.run()
        # (4 + 1 + 2 + 0) nodes x 50 s over 4 nodes x 200 s.
        assert cluster.node_utilisation("classical") == pytest.approx(
            350.0 / 800.0
        )
        assert cluster.node_utilisation("quantum") == 0.0

    def test_repr(self, cluster):
        assert "classical" in repr(cluster)


class TestNodeStateVersion:
    """The O(1) capacity-change signal consumed by TimelineCache."""

    def test_starts_at_zero(self, cluster):
        assert cluster.node_state_version == 0

    def test_failure_and_repair_bump(self, cluster):
        node = cluster.partition("classical").nodes[0]
        node.mark_down()
        assert cluster.node_state_version == 1
        node.mark_up()
        assert cluster.node_state_version == 2

    def test_drain_bumps(self, cluster):
        cluster.partition("classical").nodes[0].drain()
        assert cluster.node_state_version == 1

    def test_allocate_release_do_not_bump(self, cluster):
        allocation = cluster.allocate("job-1", "classical", 2)
        cluster.release(allocation)
        # IDLE <-> ALLOCATED transitions leave capacity unchanged, so
        # the hot allocation path never touches the counter.
        assert cluster.node_state_version == 0

    def test_down_node_failing_again_does_not_bump(self, cluster):
        node = cluster.partition("classical").nodes[0]
        node.mark_down()
        version = cluster.node_state_version
        node.mark_down()  # already DOWN: capacity class unchanged
        assert cluster.node_state_version == version
