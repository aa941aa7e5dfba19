"""Quantum substrate: technologies, circuits, devices, cloud access."""

from repro.quantum.circuit import Circuit, QuantumResult, sample_counts
from repro.quantum.cloud import CloudQPUEndpoint
from repro.quantum.fleet import ROUTING_POLICIES, QPUFleet
from repro.quantum.qpu import QPU, QuantumJob
from repro.quantum.technology import (
    NEUTRAL_ATOM,
    SUPERCONDUCTING,
    TECHNOLOGIES,
    TRAPPED_ION,
    QPUTechnology,
    fig1_reference_bands,
    standard_job,
)

__all__ = [
    # Technologies
    "NEUTRAL_ATOM",
    "QPUTechnology",
    "SUPERCONDUCTING",
    "TECHNOLOGIES",
    "TRAPPED_ION",
    "fig1_reference_bands",
    "standard_job",
    # Circuits
    "Circuit",
    "QuantumResult",
    "sample_counts",
    # Devices and access
    "CloudQPUEndpoint",
    "QPU",
    "QPUFleet",
    "QuantumJob",
    "ROUTING_POLICIES",
]
