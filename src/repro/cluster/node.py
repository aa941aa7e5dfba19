"""Compute-node model.

Nodes are the unit of allocation (SLURM ``--nodes`` semantics: whole
nodes are granted to jobs).  A node carries a core count and memory for
bookkeeping, and optionally *generic resources* (gres) — the mechanism
SLURM uses, and the paper adopts (``--gres=qpu:1``), to expose devices
such as QPUs to the batch system.  A gres unit may be *bound* to an
arbitrary device object (e.g. a :class:`repro.quantum.qpu.QPU`), which
is how an allocated job obtains a handle to the physical device behind
its grant.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from repro.errors import AllocationError, ConfigurationError

if TYPE_CHECKING:
    from repro.cluster.partition import Partition


class NodeState(enum.Enum):
    """Lifecycle state of a compute node."""

    IDLE = "idle"
    ALLOCATED = "allocated"
    DOWN = "down"
    DRAINING = "draining"


class GresInstance:
    """One schedulable unit of a generic resource on a node.

    Parameters
    ----------
    gres_type:
        Resource type name, e.g. ``"qpu"`` or ``"gpu"``.
    index:
        Unit index within the node (0-based).
    device:
        Optional backing device object handed to the job that gets this
        unit (e.g. a QPU model or a virtual-QPU lease broker).
    """

    __slots__ = ("gres_type", "index", "device", "node", "allocated_to")

    def __init__(
        self, gres_type: str, index: int, device: Any = None
    ) -> None:
        self.gres_type = gres_type
        self.index = index
        self.device = device
        #: Back-reference set when the instance is attached to a node.
        self.node: Optional["Node"] = None
        #: Job id currently holding this unit, if any.
        self.allocated_to: Optional[str] = None

    @property
    def is_free(self) -> bool:
        return self.allocated_to is None

    def __repr__(self) -> str:
        owner = f" -> {self.allocated_to}" if self.allocated_to else ""
        return f"<Gres {self.gres_type}:{self.index}{owner}>"


class Node:
    """A whole-node-allocatable compute node."""

    def __init__(
        self,
        name: str,
        cores: int = 64,
        memory_gb: float = 256.0,
        gres: Optional[List[GresInstance]] = None,
    ) -> None:
        if cores <= 0:
            raise ConfigurationError(f"node {name!r}: cores must be positive")
        if memory_gb <= 0:
            raise ConfigurationError(f"node {name!r}: memory must be positive")
        self.name = name
        self.cores = cores
        self.memory_gb = memory_gb
        self.state = NodeState.IDLE
        #: Job id currently holding the node, if any.
        self.allocated_to: Optional[str] = None
        #: Drain requested while allocated: the running job finishes,
        #: then release parks the node in ``DRAINING`` instead of IDLE.
        self._drain_pending = False
        #: Set by the owning cluster: called (with no arguments) when
        #: the node's *capacity class* changes (up / draining / down),
        #: i.e. exactly when partition capacity figures can change.
        self._state_listener: Optional[Callable[[], None]] = None
        #: Set by the owning partition: every mutator that changes
        #: ``is_available`` reports it to the partition's free-node
        #: index under this node's name-rank.
        self._partition: Optional["Partition"] = None
        self._rank = -1
        self._gres: Dict[str, List[GresInstance]] = {}
        for instance in gres or []:
            instance.node = self
            self._gres.setdefault(instance.gres_type, []).append(instance)

    @staticmethod
    def _capacity_class(state: NodeState) -> int:
        """Partition capacity depends only on this coarsening of state:
        IDLE/ALLOCATED nodes are usable, DRAINING ones keep their gres
        capacity but not their node slot, DOWN ones contribute nothing."""
        if state in (NodeState.IDLE, NodeState.ALLOCATED):
            return 0
        if state == NodeState.DRAINING:
            return 1
        return 2

    def _transition(self, new_state: NodeState) -> None:
        """Change state, notifying the cluster on capacity changes."""
        old_class = self._capacity_class(self.state)
        self.state = new_state
        if (
            self._state_listener is not None
            and old_class != self._capacity_class(new_state)
        ):
            self._state_listener()

    # -- gres ----------------------------------------------------------------

    def gres_count(self, gres_type: str) -> int:
        """Total units of ``gres_type`` on this node."""
        return len(self._gres.get(gres_type, []))

    def free_gres(self, gres_type: str) -> List[GresInstance]:
        """Unallocated units of ``gres_type``."""
        return [g for g in self._gres.get(gres_type, []) if g.is_free]

    def gres_types(self) -> List[str]:
        """All gres type names present on the node."""
        return list(self._gres)

    # -- allocation ------------------------------------------------------------

    @property
    def is_available(self) -> bool:
        """Whether the node can be handed to a new job right now."""
        return self.state == NodeState.IDLE and self.allocated_to is None

    def allocate(self, job_id: str, gres_request: Optional[Dict[str, int]] = None
                 ) -> List[GresInstance]:
        """Grant the node (and ``gres_request`` units) to ``job_id``.

        Returns the granted gres instances.  Raises
        :class:`AllocationError` if the node or the gres are busy.
        """
        if not self.is_available:
            raise AllocationError(
                f"node {self.name!r} not available (state={self.state}, "
                f"holder={self.allocated_to!r})"
            )
        granted: List[GresInstance] = []
        for gres_type, count in (gres_request or {}).items():
            free = self.free_gres(gres_type)
            if len(free) < count:
                raise AllocationError(
                    f"node {self.name!r}: requested {count} x {gres_type!r}, "
                    f"only {len(free)} free"
                )
            granted.extend(free[:count])
        self.state = NodeState.ALLOCATED
        self.allocated_to = job_id
        if self._partition is not None:
            self._partition._node_taken(self._rank)
        for instance in granted:
            instance.allocated_to = job_id
        return granted

    def release(self, job_id: str) -> None:
        """Return the node (and its gres units) held by ``job_id``."""
        if self.allocated_to != job_id:
            raise AllocationError(
                f"node {self.name!r} is not held by job {job_id!r}"
            )
        self.allocated_to = None
        if self.state == NodeState.ALLOCATED:
            if self._drain_pending:
                self._drain_pending = False
                self._transition(NodeState.DRAINING)
            else:
                self.state = NodeState.IDLE
                if self._partition is not None:
                    self._partition._node_freed(self._rank)
        for instances in self._gres.values():
            for instance in instances:
                if instance.allocated_to == job_id:
                    instance.allocated_to = None

    # -- failure/drain -----------------------------------------------------------

    def mark_down(self) -> Optional[str]:
        """Take the node down; returns the id of the evicted job, if any."""
        evicted = self.allocated_to
        if self.is_available and self._partition is not None:
            self._partition._node_taken(self._rank)
        self._drain_pending = False
        self._transition(NodeState.DOWN)
        self.allocated_to = None
        for instances in self._gres.values():
            for instance in instances:
                instance.allocated_to = None
        return evicted

    def mark_up(self) -> None:
        """Bring a down/draining node back to service.

        Also cancels a pending drain on an allocated node (the undrain
        action), so the node returns to IDLE on release as usual.
        """
        self._drain_pending = False
        if self.state in (NodeState.DOWN, NodeState.DRAINING):
            self._transition(NodeState.IDLE)
            if self._partition is not None:
                self._partition._node_freed(self._rank)

    def drain(self) -> None:
        """Stop accepting new jobs; current job may finish.

        An idle node drains immediately; an allocated node keeps
        running its job and transitions to ``DRAINING`` when the job's
        allocation is released.
        """
        if self.state == NodeState.IDLE:
            self._transition(NodeState.DRAINING)
            if self._partition is not None:
                self._partition._node_taken(self._rank)
        elif self.state == NodeState.ALLOCATED:
            self._drain_pending = True

    def __repr__(self) -> str:
        return f"<Node {self.name} {self.state.value}>"
