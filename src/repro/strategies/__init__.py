"""The paper's integration strategies and the hybrid application model.

Four strategies share one application model and one launch interface:

==================  ==========================================  =========
Strategy            Paper artefact                              Class
==================  ==========================================  =========
``coschedule``      Listing 1 baseline (exclusive hetjob)       :class:`CoScheduleStrategy`
``workflow``        Fig 2 (loosely-coupled steps)               :class:`WorkflowStrategy`
``vqpu``            Fig 3 (virtual QPUs / interleaving)         :class:`VQPUStrategy`
``malleable``       Fig 4 (shrink/grow around quantum phases)   :class:`MalleableStrategy`
==================  ==========================================  =========
"""

from repro.strategies.application import (
    HybridApplication,
    Phase,
    PhaseKind,
    classical,
    quantum,
    vqe_like,
)
from repro.strategies.base import (
    Environment,
    HeldIntegrator,
    IntegrationStrategy,
    RunRecord,
    StrategyRun,
)
from repro.strategies.coschedule import CoScheduleStrategy
from repro.strategies.elastic import ElasticQPUStrategy
from repro.strategies.malleability import MalleableStrategy
from repro.strategies.vqpu import VQPUStrategy
from repro.strategies.workflow import WorkflowStrategy

__all__ = [
    # Application model
    "HybridApplication",
    "Phase",
    "PhaseKind",
    "classical",
    "quantum",
    "vqe_like",
    # Strategy interface
    "Environment",
    "HeldIntegrator",
    "IntegrationStrategy",
    "RunRecord",
    "StrategyRun",
    # Strategies
    "CoScheduleStrategy",
    "ElasticQPUStrategy",
    "MalleableStrategy",
    "VQPUStrategy",
    "WorkflowStrategy",
]
