"""Tests for partitions: capacity queries and node selection."""

import pytest

from repro.cluster.node import GresInstance, Node
from repro.cluster.partition import Partition
from repro.errors import ConfigurationError


def make_partition(node_count=4, qpu_nodes=0):
    nodes = [Node(f"cn{i}") for i in range(node_count)]
    for index in range(qpu_nodes):
        nodes.append(
            Node(
                f"qn{index}",
                gres=[GresInstance("qpu", 0, device=f"qpu-{index}")],
            )
        )
    return Partition("test", nodes)


class TestConstruction:
    def test_empty_partition_rejected(self):
        with pytest.raises(ConfigurationError):
            Partition("empty", [])

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            Partition("", [Node("cn0")])

    def test_duplicate_node_names_rejected(self):
        with pytest.raises(ConfigurationError):
            Partition("dup", [Node("cn0"), Node("cn0")])

    def test_node_owned_by_another_partition_rejected(self):
        node = Node("cn0")
        Partition("first", [node])
        with pytest.raises(ConfigurationError, match="first"):
            Partition("second", [node])


class TestCapacityQueries:
    def test_counts(self):
        partition = make_partition(4)
        assert partition.node_count == 4
        assert partition.available_count() == 4
        assert partition.usable_node_count() == 4

    def test_allocated_nodes_still_usable_not_available(self):
        partition = make_partition(4)
        partition.nodes[0].allocate("job-1")
        assert partition.available_count() == 3
        assert partition.usable_node_count() == 4

    def test_down_nodes_not_usable(self):
        partition = make_partition(4)
        partition.nodes[0].mark_down()
        assert partition.usable_node_count() == 3

    def test_gres_capacity_skips_down_nodes(self):
        partition = make_partition(1, qpu_nodes=2)
        assert partition.gres_capacity("qpu") == 2
        partition.nodes[-1].mark_down()
        assert partition.gres_capacity("qpu") == 1


class TestFindNodes:
    def test_plain_selection_is_deterministic(self):
        partition = make_partition(4)
        chosen = partition.find_nodes(2)
        assert [node.name for node in chosen] == ["cn0", "cn1"]

    def test_insufficient_nodes_returns_none(self):
        partition = make_partition(2)
        assert partition.find_nodes(3) is None

    def test_gres_request_prefers_device_nodes(self):
        partition = make_partition(2, qpu_nodes=1)
        chosen = partition.find_nodes(1, {"qpu": 1})
        assert chosen is not None
        assert chosen[0].name == "qn0"

    def test_gres_request_unsatisfiable(self):
        partition = make_partition(2, qpu_nodes=1)
        assert partition.find_nodes(1, {"qpu": 2}) is None

    def test_gres_spread_across_nodes(self):
        partition = make_partition(0, qpu_nodes=3)
        chosen = partition.find_nodes(2, {"qpu": 2})
        assert chosen is not None
        total = sum(len(node.free_gres("qpu")) for node in chosen)
        assert total >= 2

    def test_busy_gres_not_counted(self):
        partition = make_partition(0, qpu_nodes=1)
        partition.nodes[0].allocate("job-1", {"qpu": 1})
        assert partition.find_nodes(1, {"qpu": 1}) is None

    def test_repr(self):
        assert "test" in repr(make_partition(1))
