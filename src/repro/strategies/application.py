"""Phase-structured hybrid application model.

The paper reasons about hybrid jobs as alternations of *classical
phases* (MPI compute on many nodes) and *quantum phases* (kernels
offloaded to a QPU) — the canonical pattern of variational algorithms
(VQE/QAOA), where a classical optimiser iterates over quantum circuit
evaluations.  :class:`HybridApplication` captures exactly that
structure, *independent of the integration strategy*: all four
strategies in :mod:`repro.strategies` execute the same application
object, so cross-strategy comparisons hold the workload fixed.

Classical phases scale with allocated nodes through a simple Amdahl
model, which is what makes malleability's "continue with fewer
resources, accepting slower performance" trade-off expressible.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import ConfigurationError
from repro.quantum.circuit import Circuit
from repro.quantum.technology import QPUTechnology

_app_counter = itertools.count(1)


class PhaseKind(enum.Enum):
    CLASSICAL = "classical"
    QUANTUM = "quantum"


@dataclass(frozen=True)
class Phase:
    """One phase of a hybrid application.

    For classical phases, ``work`` is the phase's single-node compute
    time in seconds (scaled down with node count via Amdahl's law).
    For quantum phases, ``circuit``/``shots`` describe the kernel.
    """

    kind: PhaseKind
    work: float = 0.0
    circuit: Optional[Circuit] = None
    shots: int = 0

    def __post_init__(self) -> None:
        if self.kind == PhaseKind.CLASSICAL:
            if self.work < 0:
                raise ConfigurationError("classical work must be >= 0")
        else:
            if self.circuit is None or self.shots <= 0:
                raise ConfigurationError(
                    "quantum phase needs a circuit and positive shots"
                )

    @property
    def is_quantum(self) -> bool:
        return self.kind == PhaseKind.QUANTUM


def classical(work: float) -> Phase:
    """A classical phase of ``work`` single-node seconds."""
    return Phase(PhaseKind.CLASSICAL, work=work)


def quantum(circuit: Circuit, shots: int) -> Phase:
    """A quantum phase running ``shots`` of ``circuit``."""
    return Phase(PhaseKind.QUANTUM, circuit=circuit, shots=shots)


@dataclass
class HybridApplication:
    """A hybrid HPC-QC application as a sequence of phases.

    Parameters
    ----------
    phases:
        Alternating (not necessarily strictly) classical/quantum phases.
    classical_nodes:
        Node count the application requests for classical phases.
    min_classical_nodes:
        Smallest node count the application can run on — the floor a
        malleable job may shrink to during quantum phases (Fig 4).
    serial_fraction:
        Amdahl serial fraction of the classical phases.
    name:
        Label used in reports; auto-generated when omitted.
    """

    phases: List[Phase]
    classical_nodes: int = 10
    min_classical_nodes: int = 1
    serial_fraction: float = 0.05
    name: str = field(default_factory=lambda: f"app-{next(_app_counter)}")

    def __post_init__(self) -> None:
        if not self.phases:
            raise ConfigurationError(f"{self.name}: no phases")
        if self.classical_nodes <= 0:
            raise ConfigurationError(
                f"{self.name}: classical_nodes must be positive"
            )
        if not 1 <= self.min_classical_nodes <= self.classical_nodes:
            raise ConfigurationError(
                f"{self.name}: min_classical_nodes must be in "
                f"[1, classical_nodes]"
            )
        if not 0.0 <= self.serial_fraction <= 1.0:
            raise ConfigurationError(
                f"{self.name}: serial_fraction must be in [0, 1]"
            )

    # -- timing --------------------------------------------------------------------

    def classical_time(self, phase: Phase, nodes: int) -> float:
        """Amdahl-scaled duration of a classical ``phase`` on ``nodes``."""
        if phase.kind != PhaseKind.CLASSICAL:
            raise ConfigurationError("classical_time needs a classical phase")
        if nodes <= 0:
            raise ConfigurationError("node count must be positive")
        serial = self.serial_fraction
        return phase.work * (serial + (1.0 - serial) / nodes)

    def quantum_time(self, phase: Phase, technology: QPUTechnology) -> float:
        """Device-busy time of a quantum ``phase`` on ``technology``."""
        if not phase.is_quantum:
            raise ConfigurationError("quantum_time needs a quantum phase")
        assert phase.circuit is not None
        return technology.execution_time(phase.circuit, phase.shots)

    def total_classical_time(self, nodes: Optional[int] = None) -> float:
        """Sum of classical-phase durations at ``nodes`` (default: requested)."""
        node_count = nodes if nodes is not None else self.classical_nodes
        return sum(
            self.classical_time(phase, node_count)
            for phase in self.phases
            if phase.kind == PhaseKind.CLASSICAL
        )

    def total_quantum_time(self, technology: QPUTechnology) -> float:
        """Sum of quantum-phase device times on ``technology``."""
        return sum(
            self.quantum_time(phase, technology)
            for phase in self.phases
            if phase.is_quantum
        )

    def calibration_overhead(self, technology: QPUTechnology) -> float:
        """Geometry-calibration time the app will trigger on ``technology``.

        One pass per *change* of register geometry across the quantum
        phases (the device caches the last calibrated geometry).
        """
        if not technology.needs_geometry_calibration:
            return 0.0
        changes = 0
        last: Optional[str] = None
        for phase in self.phases:
            if not phase.is_quantum:
                continue
            assert phase.circuit is not None
            geometry = phase.circuit.geometry
            if geometry is not None and geometry != last:
                changes += 1
                last = geometry
        return changes * technology.geometry_calibration_duration

    def ideal_makespan(self, technology: QPUTechnology,
                       nodes: Optional[int] = None) -> float:
        """Zero-queueing sequential runtime (including the calibrations
        the app necessarily triggers): the lower bound every strategy is
        judged against."""
        return (
            self.total_classical_time(nodes)
            + self.total_quantum_time(technology)
            + self.calibration_overhead(technology)
        )

    @property
    def quantum_phase_count(self) -> int:
        return sum(1 for phase in self.phases if phase.is_quantum)

    @property
    def classical_phase_count(self) -> int:
        return len(self.phases) - self.quantum_phase_count

    def __repr__(self) -> str:
        return (
            f"<HybridApplication {self.name} phases={len(self.phases)} "
            f"nodes={self.classical_nodes}>"
        )


# ---------------------------------------------------------------------------
# Canonical application factories
# ---------------------------------------------------------------------------


def vqe_like(
    iterations: int,
    classical_work: float,
    circuit: Circuit,
    shots: int = 1000,
    classical_nodes: int = 10,
    min_classical_nodes: int = 1,
    final_analysis: float = 0.0,
    name: Optional[str] = None,
) -> HybridApplication:
    """Variational loop: ``iterations`` × (classical optimise → quantum
    evaluate), plus an optional final classical analysis phase.

    This is the paper's motivating workload: "long running classical
    computation interleaved with very short quantum jobs" when
    ``classical_work`` dominates, or the opposite on slow QPUs.
    """
    if iterations <= 0:
        raise ConfigurationError("iterations must be positive")
    phases: List[Phase] = []
    for _ in range(iterations):
        phases.append(classical(classical_work))
        phases.append(quantum(circuit, shots))
    if final_analysis > 0:
        phases.append(classical(final_analysis))
    return HybridApplication(
        phases=phases,
        classical_nodes=classical_nodes,
        min_classical_nodes=min_classical_nodes,
        name=name or f"vqe-{iterations}it",
    )

