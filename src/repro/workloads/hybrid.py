"""The representative quantum kernel a hybrid trace job dispatches."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.quantum.circuit import Circuit
from repro.sim.rng import derive_seed


#: Bounds of the representative trace-job kernel payloads (width is
#: additionally clamped to the fleet's largest register).
_PAYLOAD_QUBITS = (4, 24)
_PAYLOAD_DEPTH = (20, 200)
_PAYLOAD_SHOTS = (500, 2000)


def trace_kernel_payload(
    job_id: int, max_qubits: int
) -> Tuple[Circuit, int]:
    """The representative kernel a hybrid trace job dispatches.

    When a replayed archive trace routes a job to the quantum
    partition (``TraceSpec.qpu_fraction``), the job carries one
    quantum kernel as its payload, dispatched through the facility's
    :class:`~repro.quantum.fleet.QPUFleet` router rather than pinned
    to a fixed device.  The payload's shape is derived by hashing the
    trace job id — seed-independent, exactly like the routing decision
    itself, so replications agree on every job's kernel.

    >>> circuit, shots = trace_kernel_payload(7, max_qubits=127)
    >>> (circuit, shots) == trace_kernel_payload(7, max_qubits=127)
    True
    >>> circuit.num_qubits <= 24 and 500 <= shots <= 2000
    True
    """
    rng = np.random.default_rng(derive_seed(job_id, "trace:kernel"))
    low, high = _PAYLOAD_QUBITS
    qubits = min(int(rng.integers(low, high + 1)), max_qubits)
    depth = int(rng.integers(_PAYLOAD_DEPTH[0], _PAYLOAD_DEPTH[1] + 1))
    shots = int(rng.integers(_PAYLOAD_SHOTS[0], _PAYLOAD_SHOTS[1] + 1))
    return (
        Circuit(
            num_qubits=max(qubits, 1),
            depth=depth,
            two_qubit_fraction=0.3,
            name=f"trace-kernel-{job_id}",
        ),
        shots,
    )
