"""Tests for the canonical cluster builders."""

from repro.cluster.builders import (
    CLASSICAL_PARTITION,
    QUANTUM_PARTITION,
    build_hpcqc_cluster,
    make_nodes,
    make_qpu_node,
)


class TestMakeNodes:
    def test_count_and_names(self):
        nodes = make_nodes("cn", 3)
        assert [node.name for node in nodes] == ["cn0000", "cn0001", "cn0002"]

    def test_custom_shape(self):
        nodes = make_nodes("x", 1, cores=8, memory_gb=32)
        assert nodes[0].cores == 8
        assert nodes[0].memory_gb == 32


class TestMakeQpuNode:
    def test_devices_bound_in_order(self):
        node = make_qpu_node("qn0", ["devA", "devB"])
        instances = node.free_gres("qpu")
        assert [g.device for g in instances] == ["devA", "devB"]
        assert [g.index for g in instances] == [0, 1]

    def test_custom_gres_type(self):
        node = make_qpu_node("qn0", ["d"], gres_type="vqpu")
        assert node.gres_count("vqpu") == 1


class TestBuildHpcqcCluster:
    def test_listing1_topology(self, kernel):
        cluster = build_hpcqc_cluster(kernel, 10, ["qpu0"])
        assert cluster.partition(CLASSICAL_PARTITION).node_count == 10
        assert cluster.partition(QUANTUM_PARTITION).node_count == 1
        assert (
            cluster.partition(QUANTUM_PARTITION).gres_capacity("qpu") == 1
        )

    def test_multiple_devices_packed(self, kernel):
        cluster = build_hpcqc_cluster(
            kernel, 2, ["a", "b", "c", "d"], qpus_per_node=2
        )
        quantum = cluster.partition(QUANTUM_PARTITION)
        assert quantum.node_count == 2
        assert quantum.gres_capacity("qpu") == 4

    def test_one_device_per_node(self, kernel):
        cluster = build_hpcqc_cluster(kernel, 2, ["a", "b", "c"])
        assert cluster.partition(QUANTUM_PARTITION).node_count == 3

    def test_walltime_limits_propagate(self, kernel):
        cluster = build_hpcqc_cluster(
            kernel,
            2,
            ["a"],
            classical_max_walltime=3600.0,
            quantum_max_walltime=600.0,
        )
        assert cluster.partition(CLASSICAL_PARTITION).max_walltime == 3600.0
        assert cluster.partition(QUANTUM_PARTITION).max_walltime == 600.0
