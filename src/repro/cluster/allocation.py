"""Allocation records: which nodes/gres a job component holds, and when.

An :class:`Allocation` is created by the cluster when a job component
starts and is the job's handle for releasing resources (in whole or, for
malleable jobs, in part).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cluster.node import GresInstance, Node
from repro.errors import AllocationError


class Allocation:
    """Resources granted to one job component."""

    def __init__(
        self,
        job_id: str,
        partition_name: str,
        nodes: List[Node],
        gres: List[GresInstance],
        start_time: float,
        walltime: Optional[float],
    ) -> None:
        self.job_id = job_id
        self.partition_name = partition_name
        self.nodes = list(nodes)
        self.gres = list(gres)
        self.start_time = start_time
        self.walltime = walltime
        self.end_time: Optional[float] = None
        self.released = False

    # -- inspection -------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def expected_end(self) -> float:
        """Scheduler's estimate of when this allocation frees its nodes."""
        if self.walltime is None:
            return float("inf")
        return self.start_time + self.walltime

    def gres_devices(self, gres_type: str) -> List[object]:
        """Backing device objects of the granted ``gres_type`` units."""
        return [
            g.device
            for g in self.gres
            if g.gres_type == gres_type and g.device is not None
        ]

    def gres_counts(self) -> Dict[str, int]:
        """Granted units per gres type."""
        counts: Dict[str, int] = {}
        for instance in self.gres:
            counts[instance.gres_type] = counts.get(instance.gres_type, 0) + 1
        return counts

    # -- mutation (used by the cluster and by malleability) ---------------------

    def remove_nodes(self, nodes: List[Node]) -> None:
        """Drop ``nodes`` from this allocation (they must belong to it)."""
        for node in nodes:
            if node not in self.nodes:
                raise AllocationError(
                    f"node {node.name!r} is not part of allocation for "
                    f"job {self.job_id!r}"
                )
        for node in nodes:
            self.nodes.remove(node)

    def add_nodes(self, nodes: List[Node]) -> None:
        """Attach freshly-allocated ``nodes`` to this allocation."""
        self.nodes.extend(nodes)

    def __repr__(self) -> str:
        state = "released" if self.released else "active"
        return (
            f"<Allocation job={self.job_id} partition={self.partition_name} "
            f"nodes={self.node_count} gres={len(self.gres)} {state}>"
        )
