"""HPC cluster substrate: nodes, partitions, allocations, failures."""

from repro.cluster.allocation import Allocation
from repro.cluster.builders import build_hpcqc_cluster
from repro.cluster.cluster import Cluster
from repro.cluster.node import GresInstance, Node, NodeState
from repro.cluster.partition import Partition

__all__ = [
    # Nodes and partitions
    "GresInstance",
    "Node",
    "NodeState",
    "Partition",
    # Cluster
    "Allocation",
    "Cluster",
    "build_hpcqc_cluster",
]
