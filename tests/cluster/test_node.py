"""Tests for the node model and gres instances."""

import pytest

from repro.cluster.node import GresInstance, Node, NodeState
from repro.errors import AllocationError, ConfigurationError


def make_qpu_node(name="qn0", units=2):
    gres = [GresInstance("qpu", index, device=f"dev{index}")
            for index in range(units)]
    return Node(name, cores=16, memory_gb=64, gres=gres)


class TestNodeConstruction:
    def test_defaults(self):
        node = Node("cn0")
        assert node.state == NodeState.IDLE
        assert node.is_available
        assert node.allocated_to is None

    def test_invalid_cores(self):
        with pytest.raises(ConfigurationError):
            Node("bad", cores=0)

    def test_invalid_memory(self):
        with pytest.raises(ConfigurationError):
            Node("bad", memory_gb=-1)

    def test_gres_backref(self):
        node = make_qpu_node()
        for instance in node.free_gres("qpu"):
            assert instance.node is node


class TestAllocation:
    def test_allocate_marks_node(self):
        node = Node("cn0")
        node.allocate("job-1")
        assert node.state == NodeState.ALLOCATED
        assert node.allocated_to == "job-1"
        assert not node.is_available

    def test_double_allocate_rejected(self):
        node = Node("cn0")
        node.allocate("job-1")
        with pytest.raises(AllocationError):
            node.allocate("job-2")

    def test_release_restores_availability(self):
        node = Node("cn0")
        node.allocate("job-1")
        node.release("job-1")
        assert node.is_available

    def test_release_by_wrong_job_rejected(self):
        node = Node("cn0")
        node.allocate("job-1")
        with pytest.raises(AllocationError):
            node.release("job-2")

    def test_gres_granted_with_node(self):
        node = make_qpu_node(units=2)
        granted = node.allocate("job-1", {"qpu": 1})
        assert len(granted) == 1
        assert granted[0].allocated_to == "job-1"
        assert len(node.free_gres("qpu")) == 1

    def test_gres_over_request_rejected_and_node_untouched(self):
        node = make_qpu_node(units=1)
        with pytest.raises(AllocationError):
            node.allocate("job-1", {"qpu": 2})
        assert node.is_available

    def test_gres_released_with_node(self):
        node = make_qpu_node(units=2)
        node.allocate("job-1", {"qpu": 2})
        node.release("job-1")
        assert len(node.free_gres("qpu")) == 2

    def test_unknown_gres_type_counts_zero(self):
        node = Node("cn0")
        assert node.gres_count("fpga") == 0
        assert node.free_gres("fpga") == []


class TestFailure:
    def test_mark_down_evicts_job(self):
        node = make_qpu_node()
        node.allocate("job-1", {"qpu": 1})
        evicted = node.mark_down()
        assert evicted == "job-1"
        assert node.state == NodeState.DOWN
        assert not node.is_available
        assert len(node.free_gres("qpu")) == 2

    def test_mark_down_idle_node(self):
        node = Node("cn0")
        assert node.mark_down() is None

    def test_mark_up_restores(self):
        node = Node("cn0")
        node.mark_down()
        node.mark_up()
        assert node.is_available

    def test_drain_idle_node_blocks_allocation(self):
        node = Node("cn0")
        node.drain()
        assert node.state == NodeState.DRAINING
        assert not node.is_available
        with pytest.raises(AllocationError):
            node.allocate("job-1")


class TestGresInstance:
    def test_repr_shows_owner(self):
        instance = GresInstance("qpu", 0)
        assert "qpu:0" in repr(instance)
        instance.allocated_to = "job-9"
        assert "job-9" in repr(instance)

    def test_is_free(self):
        instance = GresInstance("qpu", 0)
        assert instance.is_free
        instance.allocated_to = "job-1"
        assert not instance.is_free
