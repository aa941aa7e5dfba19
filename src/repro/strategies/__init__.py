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
    qaoa_like,
    quantum,
    sampling_campaign,
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
from repro.strategies.malleability import GrowMode, MalleableStrategy
from repro.strategies.vqpu import VirtualQPU, VirtualQPUPool, VQPUStrategy
from repro.strategies.workflow import (
    Workflow,
    WorkflowEngine,
    WorkflowStep,
    WorkflowStrategy,
)

#: Registry of strategy classes by report name.
STRATEGIES = {
    CoScheduleStrategy.name: CoScheduleStrategy,
    WorkflowStrategy.name: WorkflowStrategy,
    VQPUStrategy.name: VQPUStrategy,
    MalleableStrategy.name: MalleableStrategy,
    ElasticQPUStrategy.name: ElasticQPUStrategy,
}

__all__ = [
    "CoScheduleStrategy",
    "ElasticQPUStrategy",
    "Environment",
    "GrowMode",
    "HeldIntegrator",
    "HybridApplication",
    "IntegrationStrategy",
    "MalleableStrategy",
    "Phase",
    "PhaseKind",
    "RunRecord",
    "STRATEGIES",
    "StrategyRun",
    "VQPUStrategy",
    "VirtualQPU",
    "VirtualQPUPool",
    "Workflow",
    "WorkflowEngine",
    "WorkflowStep",
    "WorkflowStrategy",
    "classical",
    "qaoa_like",
    "quantum",
    "sampling_campaign",
    "vqe_like",
]
