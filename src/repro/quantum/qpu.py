"""The QPU device model: a sequential kernel-execution service.

A :class:`QPU` owns an inbox of submitted :class:`QuantumJob` requests
and executes them one at a time (current machines are single-tenant and
mostly single-threaded, as the paper notes).  The device interposes:

- *periodic calibration* when ``calibration_interval`` has elapsed
  since the last pass, and
- *geometry calibration* when a job's register geometry differs from
  the last calibrated geometry (neutral-atom behaviour from Fig 1).

The device keeps time-weighted busy/calibration monitors from which
experiments derive QPU utilisation — the paper's key wasted-resource
metric.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import QuantumDeviceError
from repro.quantum.circuit import Circuit, QuantumResult, sample_counts
from repro.quantum.technology import QPUTechnology
from repro.sim.events import Event
from repro.sim.kernel import Kernel
from repro.sim.monitor import SampleSeries, TimeWeightedValue
from repro.sim.rng import RandomStreams
from repro.sim.store import Store


class QuantumJob:
    """One kernel-execution request: a circuit and a shot count."""

    _serial = 0

    def __init__(
        self,
        circuit: Circuit,
        shots: int,
        submitter: Optional[str] = None,
    ) -> None:
        if shots <= 0:
            raise QuantumDeviceError(f"shots must be positive, got {shots!r}")
        QuantumJob._serial += 1
        self.id = f"qjob-{QuantumJob._serial}"
        self.circuit = circuit
        self.shots = shots
        self.submitter = submitter
        self.submit_time: Optional[float] = None
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        #: Fired with the job's :class:`QuantumResult` on completion.
        self.completion: Optional[Event] = None

    def __repr__(self) -> str:
        return f"<QuantumJob {self.id} {self.circuit.name} x{self.shots}>"


class QPU:
    """A single physical quantum processing unit.

    Parameters
    ----------
    kernel:
        Simulation kernel.
    technology:
        Timing model (see :mod:`repro.quantum.technology`).
    name:
        Device name; defaults to the technology name.
    streams:
        Random streams for duration jitter; jitter is disabled when
        omitted.
    initial_geometry:
        Geometry tag the device is calibrated for at t=0 (``None``
        means the first geometry-bearing job pays calibration).
    """

    def __init__(
        self,
        kernel: Kernel,
        technology: QPUTechnology,
        name: Optional[str] = None,
        streams: Optional[RandomStreams] = None,
        initial_geometry: Optional[str] = None,
    ) -> None:
        self.kernel = kernel
        self.technology = technology
        self.name = name or technology.name
        self._rng = (
            streams.stream(f"qpu:{self.name}") if streams is not None else None
        )
        self._inbox: Store = Store(kernel)
        self._calibrated_geometry = initial_geometry
        self._last_calibration = kernel.now
        #: Pending maintenance windows as (start, duration), kept sorted.
        self._maintenance: List[tuple] = []
        self.maintenance_performed = 0
        #: End time of an in-progress calibration/maintenance pass.
        self._unavailable_until = kernel.now
        #: 1 while executing a job, else 0.
        self.busy = TimeWeightedValue(kernel, 0.0)
        #: 1 while calibrating, else 0.
        self.calibrating = TimeWeightedValue(kernel, 0.0)
        #: Per-job wait (submit -> start) and service times.
        self.wait_times = SampleSeries(f"{self.name}:wait")
        self.service_times = SampleSeries(f"{self.name}:service")
        self.completed_jobs: List[QuantumJob] = []
        self.jobs_executed = 0
        self.calibrations_performed = 0
        self._process = kernel.process(self._serve(), name=f"qpu:{self.name}")

    # -- client API --------------------------------------------------------------

    def submit(self, job: QuantumJob) -> Event:
        """Queue ``job``; returns an event firing with its result."""
        if job.completion is not None:
            raise QuantumDeviceError(f"{job!r} was already submitted")
        self.technology.validate_circuit(job.circuit)
        job.submit_time = self.kernel.now
        job.completion = self.kernel.event()
        self._inbox.put(job)
        return job.completion

    def run(self, circuit: Circuit, shots: int,
            submitter: Optional[str] = None) -> Event:
        """Convenience: build a job for ``circuit`` and submit it."""
        return self.submit(QuantumJob(circuit, shots, submitter=submitter))

    @property
    def queue_length(self) -> int:
        """Jobs waiting in the device inbox."""
        return self._inbox.size

    @property
    def utilisation(self) -> float:
        """Time-averaged fraction of time spent executing jobs."""
        return self.busy.time_average()

    @property
    def pending_maintenance(self) -> List[tuple]:
        """Booked ``(start, duration)`` windows not yet performed."""
        return list(self._maintenance)

    @property
    def unavailable_for(self) -> float:
        """Remaining seconds of an in-progress calibration or
        maintenance pass (0 when the device is serviceable now)."""
        return max(self._unavailable_until - self.kernel.now, 0.0)

    def schedule_maintenance(self, start: float, duration: float) -> None:
        """Book a maintenance window beginning at ``start``.

        The device finishes its current kernel, then holds off further
        work for ``duration`` seconds once the window opens (jobs keep
        queueing in the inbox meanwhile).  Windows must lie in the
        future and not overlap an already-booked one.
        """
        if start < self.kernel.now:
            raise QuantumDeviceError(
                f"maintenance start {start} is in the past"
            )
        if duration <= 0:
            raise QuantumDeviceError("maintenance duration must be > 0")
        for other_start, other_duration in self._maintenance:
            if start < other_start + other_duration and (
                other_start < start + duration
            ):
                raise QuantumDeviceError(
                    "maintenance window overlaps an existing one"
                )
        self._maintenance.append((start, duration))
        self._maintenance.sort()

    def _due_maintenance(self):
        """Pop the next window if its start time has passed."""
        if self._maintenance and self.kernel.now >= self._maintenance[0][0]:
            return self._maintenance.pop(0)
        return None

    # -- device process ------------------------------------------------------------

    def _serve(self):
        while True:
            job = yield self._inbox.get()
            assert isinstance(job, QuantumJob)
            calibration_time = 0.0

            # Overdue maintenance blocks service before the next kernel.
            window = self._due_maintenance()
            while window is not None:
                _, duration = window
                self.calibrating.set(1.0)
                self._unavailable_until = self.kernel.now + duration
                yield self.kernel.timeout(duration)
                self.calibrating.set(0.0)
                self.maintenance_performed += 1
                window = self._due_maintenance()

            # Periodic (drift) calibration.
            interval = self.technology.calibration_interval
            if (
                interval != float("inf")
                and self.kernel.now - self._last_calibration >= interval
            ):
                calibration_time += yield from self._calibrate(
                    self.technology.calibration_duration
                )

            # Geometry calibration (neutral-atom style).
            geometry = job.circuit.geometry
            if (
                self.technology.needs_geometry_calibration
                and geometry is not None
                and geometry != self._calibrated_geometry
            ):
                calibration_time += yield from self._calibrate(
                    self.technology.geometry_calibration_duration
                )
                self._calibrated_geometry = geometry

            duration = self._jittered(
                self.technology.execution_time(job.circuit, job.shots)
            )
            job.start_time = self.kernel.now
            assert job.submit_time is not None
            queue_time = job.start_time - job.submit_time - calibration_time
            self.busy.set(1.0)
            yield self.kernel.timeout(duration)
            self.busy.set(0.0)
            job.end_time = self.kernel.now

            result = QuantumResult(
                counts=sample_counts(job.circuit, job.shots),
                shots=job.shots,
                execution_time=duration,
                queue_time=max(queue_time, 0.0),
                calibration_time=calibration_time,
            )
            self.wait_times.record(job.start_time - job.submit_time)
            self.service_times.record(duration)
            self.jobs_executed += 1
            self.completed_jobs.append(job)
            assert job.completion is not None
            job.completion.succeed(result)

    def _calibrate(self, duration: float):
        """Run one calibration pass of ``duration`` seconds."""
        self.calibrating.set(1.0)
        self._unavailable_until = self.kernel.now + duration
        yield self.kernel.timeout(duration)
        self.calibrating.set(0.0)
        self._last_calibration = self.kernel.now
        self.calibrations_performed += 1
        return duration

    def _jittered(self, duration: float) -> float:
        sigma = self.technology.duration_jitter
        if self._rng is None or sigma <= 0.0:
            return duration
        return float(duration * self._rng.lognormal(mean=0.0, sigma=sigma))

    def __repr__(self) -> str:
        return (
            f"<QPU {self.name} ({self.technology.name}) "
            f"queue={self.queue_length} done={self.jobs_executed}>"
        )
