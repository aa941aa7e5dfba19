"""S2 — virtual QPUs: temporal interleaving on one physical device
(paper Fig 3).

"Dividing the available qubits among the applications is unfeasible due
to isolation issues", so a :class:`VirtualQPUPool` multiplexes a fixed
number of *virtual* QPUs onto one physical device **in time**: each
VQPU is exposed to the batch scheduler as its own ``qpu`` gres unit, so
V applications can be co-scheduled against a single machine.  A VQPU
admits one outstanding kernel at a time, hence a request waits for at
most ``V - 1`` foreign kernels — the paper's "minimal delays, bounded
by the number of VQPUs".
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import QuantumDeviceError
from repro.quantum.circuit import Circuit
from repro.quantum.qpu import QPU
from repro.sim.events import Event
from repro.sim.monitor import SampleSeries
from repro.strategies.coschedule import WALLTIME_SAFETY, CoScheduleStrategy


class VirtualQPU:
    """One time-share of a physical QPU, exposed as a gres device.

    Mirrors the :class:`~repro.quantum.qpu.QPU` submission API
    (``run(circuit, shots)``) so applications are oblivious to
    virtualisation — the paper's "these changes do not affect the
    application code at all".
    """

    def __init__(self, pool: "VirtualQPUPool", index: int) -> None:
        self.pool = pool
        self.index = index
        self.name = f"{pool.qpu.name}/v{index}"
        self._outstanding = 0
        self.requests_served = 0
        #: Extra wait each request experienced due to sharing.
        self.interleave_waits = SampleSeries(f"{self.name}:interleave")

    @property
    def technology(self):
        return self.pool.qpu.technology

    def run(
        self, circuit: Circuit, shots: int, submitter: Optional[str] = None
    ) -> Event:
        """Submit a kernel through this virtual QPU.

        A virtual QPU is a *time share*: concurrent outstanding requests
        on the same VQPU are a programming error (the batch job that
        owns it executes kernels one at a time).
        """
        if self._outstanding >= 1:
            raise QuantumDeviceError(
                f"virtual QPU {self.name} already has an outstanding "
                "request (one kernel at a time per time-share)"
            )
        self._outstanding += 1
        kernel = self.pool.qpu.kernel
        proxy = kernel.event()
        submit_time = kernel.now
        completion = self.pool.qpu.run(circuit, shots, submitter=submitter)

        def forward(event: Event) -> None:
            self._outstanding -= 1
            self.requests_served += 1
            result = event.value
            self.interleave_waits.record(result.queue_time)
            self.pool.record_request(self.index, submit_time, kernel.now)
            proxy.succeed(result)

        completion.callbacks.append(forward)
        return proxy

    def __repr__(self) -> str:
        return f"<VirtualQPU {self.name} served={self.requests_served}>"


class VirtualQPUPool:
    """A fixed number of virtual QPUs multiplexed onto one physical QPU.

    Requests from all VQPUs funnel into the physical device's FIFO
    inbox; because each VQPU holds at most one outstanding request, any
    request finds at most ``size - 1`` kernels ahead of it.
    """

    def __init__(self, qpu: QPU, size: int) -> None:
        if size <= 0:
            raise QuantumDeviceError("pool size must be positive")
        self.qpu = qpu
        self.size = size
        self.virtual_qpus: List[VirtualQPU] = [
            VirtualQPU(self, index) for index in range(size)
        ]
        #: End-to-end request times across all tenants.
        self.request_times = SampleSeries(f"{qpu.name}:pool")
        self.total_requests = 0

    def record_request(
        self, vqpu_index: int, submit_time: float, end_time: float
    ) -> None:
        self.request_times.record(end_time - submit_time)
        self.total_requests += 1

    def delay_bound(self, worst_kernel_time: float) -> float:
        """Paper's admission bound: at most ``size - 1`` foreign kernels
        (each at most ``worst_kernel_time``) precede any request."""
        return (self.size - 1) * worst_kernel_time

    def __repr__(self) -> str:
        return (
            f"<VirtualQPUPool {self.qpu.name} x{self.size} "
            f"requests={self.total_requests}>"
        )


class VQPUStrategy(CoScheduleStrategy):
    """Co-scheduling against a *virtual* QPU gres unit.

    Identical job shape to :class:`CoScheduleStrategy` — one hetjob
    with ``--gres=qpu:1`` — but launched into an environment whose
    quantum partition exposes ``V`` virtual units per physical device
    (a scenario whose :class:`~repro.scenarios.spec.FleetSpec` sets
    ``vqpus_per_qpu > 1``), so up to V tenants hold "a QPU"
    simultaneously and interleave on the real one.

    The requested walltime provisions for the interleaving delay bound:
    every quantum phase may wait behind up to ``V - 1`` foreign kernels.
    """

    name = "vqpu"

    def _walltime_for(self, env, app) -> float:
        if self.walltime is not None:
            return self.walltime
        technology = env.planning_technology(app)
        base = app.ideal_makespan(technology) * WALLTIME_SAFETY
        pool_size = max(
            (pool.size for pool in env.vqpu_pools), default=1
        )
        if pool_size <= 1:
            return base
        worst_kernel = max(
            (
                technology.execution_time(phase.circuit, phase.shots)
                for phase in app.phases
                if phase.is_quantum
            ),
            default=0.0,
        )
        interleave_allowance = (
            app.quantum_phase_count * (pool_size - 1) * worst_kernel
        )
        return base + interleave_allowance * WALLTIME_SAFETY
