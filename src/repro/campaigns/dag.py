"""The campaign DAG: stage dependency resolution, deterministically.

A campaign's stages form a directed acyclic graph over their ``after``
edges.  :class:`CampaignDAG` validates the graph once (unknown
dependencies, self-loops, cycles) and answers the two questions the
engine asks:

- :attr:`~CampaignDAG.order` — a *deterministic* topological order
  (Kahn's algorithm with ties broken by declaration order), so every
  run schedules ready stages identically regardless of backend or of
  which stage happened to finish first;
- :meth:`~CampaignDAG.downstream_cone` — the set of transitive
  dependents of one stage, which is exactly what gets skipped when
  that stage fails under ``on_error="collect"`` while independent
  branches keep running.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Sequence, Set, Tuple

from repro.errors import ConfigurationError


class CampaignDAG:
    """Dependency structure over a campaign's stages.

    >>> from repro.campaigns.spec import StageSpec
    >>> dag = CampaignDAG([
    ...     StageSpec(name="a", step="report.render"),
    ...     StageSpec(name="b", step="report.render", after=("a",)),
    ...     StageSpec(name="c", step="report.render", after=("a",)),
    ...     StageSpec(name="d", step="report.render", after=("b", "c")),
    ... ])
    >>> dag.order
    ['a', 'b', 'c', 'd']
    >>> sorted(dag.downstream_cone("b"))
    ['d']
    >>> sorted(dag.downstream_cone("a"))
    ['b', 'c', 'd']
    """

    def __init__(self, stages: Sequence) -> None:
        names = [stage.name for stage in stages]
        duplicates = sorted(
            {name for name in names if names.count(name) > 1}
        )
        if duplicates:
            raise ConfigurationError(
                f"duplicate stage names: {duplicates}"
            )
        self.stages = {stage.name: stage for stage in stages}
        self._children: Dict[str, List[str]] = {name: [] for name in names}
        for stage in stages:
            for dep in stage.after:
                if dep == stage.name:
                    raise ConfigurationError(
                        f"stage {stage.name!r} depends on itself"
                    )
                if dep not in self.stages:
                    raise ConfigurationError(
                        f"stage {stage.name!r} depends on unknown stage "
                        f"{dep!r} (stages: {sorted(self.stages)})"
                    )
                self._children[dep].append(stage.name)
        self.order = self._topological_order(names)

    def _topological_order(self, names: List[str]) -> List[str]:
        """Kahn's algorithm; ready ties broken by declaration order."""
        indegree = {
            name: len(self.stages[name].after) for name in names
        }
        position = {name: index for index, name in enumerate(names)}
        ready = deque(
            sorted(
                (name for name in names if indegree[name] == 0),
                key=position.__getitem__,
            )
        )
        order: List[str] = []
        while ready:
            name = ready.popleft()
            order.append(name)
            released = []
            for child in self._children[name]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    released.append(child)
            for child in sorted(released, key=position.__getitem__):
                ready.append(child)
        if len(order) != len(names):
            cycle = sorted(
                name for name in names if indegree[name] > 0
            )
            raise ConfigurationError(
                f"campaign stages form a cycle involving {cycle}"
            )
        return order

    def successors(self, name: str) -> Tuple[str, ...]:
        """The direct dependents of one stage."""
        return tuple(self._children[name])

    def downstream_cone(self, name: str) -> Set[str]:
        """Every transitive dependent of ``name`` (excluding itself)."""
        cone: Set[str] = set()
        frontier = list(self._children[name])
        while frontier:
            child = frontier.pop()
            if child in cone:
                continue
            cone.add(child)
            frontier.extend(self._children[child])
        return cone
