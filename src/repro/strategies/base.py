"""Strategy framework: environment, per-run records, common driver.

An :class:`Environment` bundles the simulated facility (kernel, cluster,
scheduler, the QPU fleet).  An :class:`IntegrationStrategy` launches a
:class:`~repro.strategies.application.HybridApplication` into that
facility and produces a :class:`RunRecord` — the uniform measurement
every experiment consumes:

- *turnaround* (submit of the first piece to completion of the last),
- *held* node/QPU-gres seconds (what the allocation occupied),
- *useful* node/QPU seconds (what actually computed),
- per-step queue waits.

``held`` vs ``useful`` is precisely the paper's wasted-resource
argument: exclusive co-scheduling makes ``held ≫ useful`` on one side
or the other depending on the QPU technology.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.cluster.cluster import Cluster
from repro.errors import ConfigurationError
from repro.quantum.fleet import QPUFleet
from repro.quantum.qpu import QPU
from repro.quantum.technology import QPUTechnology
from repro.scheduler.scheduler import BatchScheduler
from repro.sim.events import Event
from repro.sim.kernel import Kernel
from repro.sim.rng import RandomStreams
from repro.strategies.application import HybridApplication


@dataclass
class Environment:
    """The simulated facility a strategy runs against."""

    kernel: Kernel
    cluster: Cluster
    scheduler: BatchScheduler
    qpus: List[QPU]
    streams: RandomStreams
    #: Router over the physical devices.
    fleet: QPUFleet
    #: Virtual-QPU pools, populated when the environment virtualises
    #: its devices (``vqpus_per_qpu > 1``).
    vqpu_pools: List[Any] = field(default_factory=list)
    #: Stochastic failure injectors installed by the scenario's fault
    #: schedule (empty unless the scenario requests random churn).
    fault_injectors: List[Any] = field(default_factory=list)

    @property
    def now(self) -> float:
        return self.kernel.now

    def primary_qpu(self) -> QPU:
        if not self.qpus:
            raise ConfigurationError("environment has no QPU")
        return self.qpus[0]

    def technologies(self) -> List[QPUTechnology]:
        """Distinct device technologies, in fleet declaration order."""
        if not self.qpus:
            raise ConfigurationError("environment has no QPU")
        seen: List[QPUTechnology] = []
        for qpu in self.qpus:
            if qpu.technology not in seen:
                seen.append(qpu.technology)
        return seen

    def planning_technology(
        self, app: "HybridApplication"
    ) -> QPUTechnology:
        """The technology walltime estimates should provision for.

        A homogeneous fleet answers with its (single) device
        technology — exactly the historical ``primary_qpu``
        behaviour.  A heterogeneous fleet answers with the *slowest*
        technology capable of the app's widest circuit, so a derived
        walltime is sufficient on any device that can execute the
        kernels.

        Note the planning/execution split: strategies execute quantum
        phases on whichever ``qpu`` gres unit the batch scheduler
        allocates (fleet-routed dispatch covers direct ``fleet.run``
        clients and hybrid trace payloads).  On a mixed fleet whose
        registers differ, a job can therefore still land on a device
        too small for its circuits and fail at submission —
        capability-constrained gres placement is a roadmap item; until
        then size strategy-campaign circuits to the *smallest* fleet
        register.
        """
        technologies = self.technologies()
        if len(technologies) == 1:
            return technologies[0]
        width = max(
            (
                phase.circuit.num_qubits
                for phase in app.phases
                if phase.is_quantum and phase.circuit is not None
            ),
            default=0,
        )
        capable = [
            technology
            for technology in technologies
            if technology.num_qubits >= width
        ]
        if not capable:
            raise ConfigurationError(
                f"no fleet technology has {width} qubits for "
                f"{app.name!r} (largest: "
                f"{max(t.num_qubits for t in technologies)})"
            )
        return max(capable, key=app.ideal_makespan)


class HeldIntegrator:
    """Integrates ``count × dt`` across explicit set-points.

    Used to account node-seconds held while an allocation's size varies
    (malleability) or across disjoint per-step allocations (workflows).
    """

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self._count = 0.0
        self._since = kernel.now
        self.total = 0.0

    def set_count(self, count: float) -> None:
        now = self.kernel.now
        self.total += self._count * (now - self._since)
        self._since = now
        self._count = count

    def finish(self) -> float:
        self.set_count(0.0)
        return self.total


@dataclass
class RunRecord:
    """Uniform per-application measurement across strategies."""

    app_name: str
    strategy: str
    submit_time: float
    start_time: Optional[float] = None
    end_time: Optional[float] = None

    #: Node-seconds of classical allocation held (integrated over time).
    classical_held_node_seconds: float = 0.0
    #: Node-seconds of useful classical compute.
    classical_useful_node_seconds: float = 0.0
    #: Seconds the QPU gres was held by this application.
    qpu_held_seconds: float = 0.0
    #: Device-busy seconds consumed by this application's kernels.
    qpu_busy_seconds: float = 0.0
    #: Calibration seconds triggered by this application's kernels.
    qpu_calibration_seconds: float = 0.0

    #: Queue waits paid, one per independently scheduled piece.
    queue_waits: List[float] = field(default_factory=list)
    #: Waits between kernel submission and kernel start at the device.
    quantum_access_waits: List[float] = field(default_factory=list)
    #: Strategy-specific annotations.
    details: Dict[str, Any] = field(default_factory=dict)

    # -- derived -------------------------------------------------------------------

    @property
    def turnaround(self) -> Optional[float]:
        if self.end_time is None:
            return None
        return self.end_time - self.submit_time

    @property
    def total_queue_wait(self) -> float:
        return sum(self.queue_waits)

    @property
    def classical_efficiency(self) -> float:
        """useful / held node-seconds on the classical side (0 if unheld)."""
        if self.classical_held_node_seconds <= 0:
            return 0.0
        return min(
            self.classical_useful_node_seconds
            / self.classical_held_node_seconds,
            1.0,
        )

    @property
    def qpu_efficiency(self) -> float:
        """busy / held seconds on the QPU side (0 if unheld)."""
        if self.qpu_held_seconds <= 0:
            return 0.0
        return min(self.qpu_busy_seconds / self.qpu_held_seconds, 1.0)


class StrategyRun:
    """Handle to an in-flight strategy execution."""

    def __init__(self, record: RunRecord, done: Event) -> None:
        self.record = record
        #: Fires with the finished :class:`RunRecord`.
        self.done = done


class IntegrationStrategy:
    """Interface implemented by the four integration approaches."""

    #: Registry/report name, e.g. ``"coschedule"``.
    name = "abstract"

    def launch(self, env: Environment, app: HybridApplication) -> StrategyRun:
        """Start ``app`` in ``env``; returns immediately with a handle."""
        raise NotImplementedError

    def _new_record(self, env: Environment, app: HybridApplication) -> RunRecord:
        return RunRecord(
            app_name=app.name, strategy=self.name, submit_time=env.now
        )

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"
