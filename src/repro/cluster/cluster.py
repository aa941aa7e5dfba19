"""The cluster: partitions, allocation bookkeeping and utilisation monitors.

The cluster is passive with respect to time — the batch scheduler
decides *when* to allocate; the cluster checks feasibility, mutates node
state and maintains time-weighted busy-node counters that the metrics
layer turns into utilisation figures.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.cluster.allocation import Allocation
from repro.cluster.node import Node
from repro.cluster.partition import Partition
from repro.errors import AllocationError, ConfigurationError
from repro.sim.kernel import Kernel
from repro.sim.monitor import TimeWeightedValue


class Cluster:
    """A set of partitions plus allocation bookkeeping."""

    def __init__(
        self,
        kernel: Kernel,
        partitions: List[Partition],
        record_history: bool = False,
    ) -> None:
        if not partitions:
            raise ConfigurationError("a cluster needs at least one partition")
        names = [p.name for p in partitions]
        if len(set(names)) != len(names):
            raise ConfigurationError("duplicate partition names")
        self.kernel = kernel
        self.partitions: Dict[str, Partition] = {p.name: p for p in partitions}
        #: Active allocations keyed by (job_id, partition, serial).
        self.allocations: List[Allocation] = []
        #: Monotone counter bumped on every allocation mutation; lets
        #: incremental consumers (timeline caches) detect missed deltas.
        self.allocation_version = 0
        #: Monotone counter bumped whenever any node's capacity class
        #: changes (up <-> draining <-> down).  Capacity consumers
        #: (timeline caches) compare versions instead of rescanning
        #: every node state per pass.
        self.node_state_version = 0
        for partition in partitions:
            for node in partition.nodes:
                node._state_listener = self._on_node_state_change
        #: Observers of allocation deltas, called synchronously with
        #: ``(kind, allocation, node_count)`` where kind is one of
        #: ``allocate``/``release``/``shrink``/``grow``.
        self._allocation_listeners: List[
            Callable[[str, Allocation, int], None]
        ] = []
        #: Per-partition time-weighted busy-node counters; they keep
        #: full step histories only with ``record_history`` (scenario
        #: monitoring opt-in; off on the hot path by default).
        self.busy_nodes: Dict[str, TimeWeightedValue] = {
            p.name: TimeWeightedValue(
                kernel, 0.0, record_history=record_history
            )
            for p in partitions
        }

    # -- queries ------------------------------------------------------------------

    def partition(self, name: str) -> Partition:
        try:
            return self.partitions[name]
        except KeyError:
            raise ConfigurationError(f"unknown partition {name!r}") from None

    def total_nodes(self) -> int:
        return sum(p.node_count for p in self.partitions.values())

    def can_allocate(
        self,
        partition_name: str,
        node_count: int,
        gres_request: Optional[Dict[str, int]] = None,
    ) -> bool:
        """Whether the request could start *right now*."""
        partition = self.partition(partition_name)
        return partition.find_nodes(node_count, gres_request) is not None

    def active_allocations(
        self, partition_name: Optional[str] = None
    ) -> List[Allocation]:
        """Unreleased allocations, optionally filtered by partition."""
        return [
            a
            for a in self.allocations
            if not a.released
            and (partition_name is None or a.partition_name == partition_name)
        ]

    # -- allocation delta feed ---------------------------------------------------

    def add_allocation_listener(
        self, listener: Callable[[str, Allocation, int], None]
    ) -> None:
        """Subscribe to allocation deltas (see ``_notify`` kinds)."""
        self._allocation_listeners.append(listener)

    def remove_allocation_listener(
        self, listener: Callable[[str, Allocation, int], None]
    ) -> None:
        """Unsubscribe; unknown listeners are ignored."""
        try:
            self._allocation_listeners.remove(listener)
        except ValueError:
            pass

    def _notify(self, kind: str, allocation: Allocation, count: int) -> None:
        self.allocation_version += 1
        for listener in self._allocation_listeners:
            listener(kind, allocation, count)

    def _on_node_state_change(self) -> None:
        self.node_state_version += 1

    # -- allocate / release ----------------------------------------------------------

    def allocate(
        self,
        job_id: str,
        partition_name: str,
        node_count: int,
        gres_request: Optional[Dict[str, int]] = None,
        walltime: Optional[float] = None,
    ) -> Allocation:
        """Grant ``node_count`` nodes (+gres) in ``partition_name``.

        Raises :class:`AllocationError` if the request cannot be
        satisfied at the current instant.
        """
        partition = self.partition(partition_name)
        nodes = partition.find_nodes(node_count, gres_request)
        if nodes is None:
            raise AllocationError(
                f"partition {partition_name!r} cannot satisfy "
                f"{node_count} nodes + gres {gres_request!r} for job {job_id!r}"
            )
        granted = self._grant_on_nodes(job_id, nodes, gres_request)
        allocation = Allocation(
            job_id=job_id,
            partition_name=partition_name,
            nodes=nodes,
            gres=granted,
            start_time=self.kernel.now,
            walltime=walltime,
        )
        self.allocations.append(allocation)
        self.busy_nodes[partition_name].add(len(nodes))
        self._notify("allocate", allocation, len(nodes))
        return allocation

    def _grant_on_nodes(self, job_id, nodes, gres_request):
        """Allocate ``nodes``, spreading the job-total gres request."""
        remaining = dict(gres_request or {})
        granted = []
        for node in nodes:
            per_node: Dict[str, int] = {}
            for gres_type in list(remaining):
                if remaining[gres_type] <= 0:
                    continue
                take = min(remaining[gres_type], len(node.free_gres(gres_type)))
                if take > 0:
                    per_node[gres_type] = take
                    remaining[gres_type] -= take
            granted.extend(node.allocate(job_id, per_node))
        unmet = {t: c for t, c in remaining.items() if c > 0}
        if unmet:
            # Roll back: release everything we just took.
            for node in nodes:
                if node.allocated_to == job_id:
                    node.release(job_id)
            raise AllocationError(
                f"gres request unsatisfiable on chosen nodes: {unmet!r}"
            )
        return granted

    def release(self, allocation: Allocation) -> None:
        """Return every node of ``allocation`` to its partition."""
        if allocation.released:
            raise AllocationError(
                f"allocation for job {allocation.job_id!r} already released"
            )
        for node in allocation.nodes:
            node.release(allocation.job_id)
        allocation.released = True
        allocation.end_time = self.kernel.now
        self.busy_nodes[allocation.partition_name].add(-len(allocation.nodes))
        self._notify("release", allocation, len(allocation.nodes))

    def shrink(self, allocation: Allocation, count: int) -> List[Node]:
        """Release ``count`` nodes from a live allocation (malleability).

        Nodes *without* allocated gres are preferred so a shrinking
        hybrid job keeps its device-bearing nodes.  Returns the released
        nodes.
        """
        if allocation.released:
            raise AllocationError("cannot shrink a released allocation")
        if count <= 0 or count > len(allocation.nodes):
            raise AllocationError(
                f"shrink count {count} out of range for allocation of "
                f"{len(allocation.nodes)} nodes"
            )
        job_id = allocation.job_id
        gres_nodes = {g.node for g in allocation.gres if g.node is not None}
        candidates = sorted(
            allocation.nodes,
            key=lambda n: (n in gres_nodes, n.name),
        )
        victims = candidates[:count]
        for node in victims:
            node.release(job_id)
        allocation.remove_nodes(victims)
        self.busy_nodes[allocation.partition_name].add(-len(victims))
        self._notify("shrink", allocation, len(victims))
        return victims

    def grow(self, allocation: Allocation, count: int) -> List[Node]:
        """Attach ``count`` additional nodes to a live allocation.

        Raises :class:`AllocationError` if the partition cannot supply
        them right now.
        """
        if allocation.released:
            raise AllocationError("cannot grow a released allocation")
        partition = self.partition(allocation.partition_name)
        nodes = partition.find_nodes(count)
        if nodes is None:
            raise AllocationError(
                f"partition {allocation.partition_name!r} cannot supply "
                f"{count} extra nodes"
            )
        for node in nodes:
            node.allocate(allocation.job_id)
        allocation.add_nodes(nodes)
        self.busy_nodes[allocation.partition_name].add(len(nodes))
        self._notify("grow", allocation, len(nodes))
        return nodes

    # -- metrics -----------------------------------------------------------------

    def node_utilisation(self, partition_name: str) -> float:
        """Time-averaged fraction of the partition's nodes allocated."""
        partition = self.partition(partition_name)
        if partition.node_count == 0:
            return 0.0
        return (
            self.busy_nodes[partition_name].time_average()
            / partition.node_count
        )

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{p.name}:{p.available_count()}/{p.node_count}"
            for p in self.partitions.values()
        )
        return f"<Cluster {parts}>"
