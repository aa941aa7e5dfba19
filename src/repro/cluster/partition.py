"""Partitions: named groups of interchangeable nodes.

The paper's Listing 1 uses two partitions, ``classical`` and
``quantum``; the quantum partition's nodes expose QPUs as gres.  Nodes
inside one partition are treated as homogeneous and interchangeable for
scheduling purposes, which matches how backfill reservations are
computed on production systems.

Each partition keeps an incremental *free-node index*: its nodes sorted
by name once, plus a sorted list of the name-ranks of the nodes that are
available right now.  Nodes update the index themselves on every
availability change, so capacity queries cost O(free nodes) and
allocation costs O(nodes granted) instead of a scan and sort of the
whole partition.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, List, Optional

from repro.cluster.node import Node, NodeState
from repro.errors import ConfigurationError


class Partition:
    """A named pool of homogeneous nodes with a walltime limit."""

    def __init__(
        self,
        name: str,
        nodes: List[Node],
        max_walltime: Optional[float] = None,
    ) -> None:
        if not name:
            raise ConfigurationError("partition name must be non-empty")
        if not nodes:
            raise ConfigurationError(f"partition {name!r} has no nodes")
        names = [node.name for node in nodes]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"partition {name!r} contains duplicate node names"
            )
        for node in nodes:
            if node._partition is not None:
                raise ConfigurationError(
                    f"node {node.name!r} already belongs to partition "
                    f"{node._partition.name!r}"
                )
        self.name = name
        self.nodes = list(nodes)
        #: Nodes in name order; a node's position here is its rank.
        self._by_rank = sorted(nodes, key=lambda n: n.name)
        #: Sorted ranks of the nodes available right now (the free-node
        #: index), kept current by the nodes' own mutators.
        self._free: List[int] = []
        for rank, node in enumerate(self._by_rank):
            node._partition = self
            node._rank = rank
            if node.is_available:
                self._free.append(rank)
        #: Upper bound on job walltime in this partition (None = unlimited).
        self.max_walltime = max_walltime

    # -- capacity queries -----------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def available_nodes(self) -> List[Node]:
        """Nodes that can be allocated right now, in name order.

        Read from the free-node index: costs O(free nodes), never a
        scan of the whole partition.
        """
        by_rank = self._by_rank
        return [by_rank[rank] for rank in self._free]

    def usable_node_count(self) -> int:
        """Nodes not DOWN/DRAINING (allocated ones count as usable)."""
        return sum(
            1
            for node in self.nodes
            if node.state in (NodeState.IDLE, NodeState.ALLOCATED)
        )

    def available_count(self) -> int:
        return len(self._free)

    def gres_types(self) -> List[str]:
        """All gres type names present on any node, sorted."""
        types = set()
        for node in self.nodes:
            types.update(node.gres_types())
        return sorted(types)

    def gres_capacity(self, gres_type: str) -> int:
        """Total gres units of ``gres_type`` across usable nodes."""
        return sum(
            node.gres_count(gres_type)
            for node in self.nodes
            if node.state != NodeState.DOWN
        )

    def find_nodes(
        self, count: int, gres_request: Optional[Dict[str, int]] = None
    ) -> Optional[List[Node]]:
        """Pick ``count`` available nodes jointly satisfying ``gres_request``.

        The gres request is a *per-job-component* total: units may be
        spread across the chosen nodes (as SLURM does for
        ``--gres``-per-job style requests).  Returns ``None`` when the
        request cannot be satisfied right now.

        Selection is greedy: nodes with the most free units of the
        requested gres types come first so device-bearing nodes are
        preferred for device-requesting jobs, then name order for
        determinism.
        """
        free = self._free
        if len(free) < count:
            return None
        by_rank = self._by_rank
        if not gres_request:
            return [by_rank[rank] for rank in free[:count]]
        request = dict(gres_request)

        def gres_richness(node: Node) -> int:
            return sum(len(node.free_gres(t)) for t in request)

        # The index is already in name order, so a stable sort on
        # richness alone breaks ties by name.
        ordered = sorted(
            (by_rank[rank] for rank in free), key=lambda n: -gres_richness(n)
        )
        chosen = ordered[:count]
        for gres_type, needed in request.items():
            free_total = sum(len(n.free_gres(gres_type)) for n in chosen)
            if free_total < needed:
                return None
        return chosen

    # -- free-node index (maintained by Node mutators) -------------------------

    def _node_freed(self, rank: int) -> None:
        insort(self._free, rank)

    def _node_taken(self, rank: int) -> None:
        free = self._free
        del free[bisect_left(free, rank)]

    def __repr__(self) -> str:
        return (
            f"<Partition {self.name} nodes={self.node_count} "
            f"free={self.available_count()}>"
        )
