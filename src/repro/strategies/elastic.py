"""S4 (extension) — elastic QPU attach/detach.

The paper's Section 5 closes with "Future work will expand on these
concepts"; this strategy is the natural composition of its three
proposals, built on the scheduler's component-level malleability:

- like **malleability** (Fig 4), the application is a *single* batch
  job that queues once and renegotiates resources at phase boundaries —
  but the renegotiated resource is the *QPU component itself*;
- like a **workflow** (Fig 2), the scarce QPU is held only while a
  kernel actually needs it — but without paying a full queue wait per
  step, because the classical job (and its state) stays resident;
- like **VQPUs** (Fig 3), several tenants end up time-sharing one
  physical device — but through scheduler-mediated attach/detach
  rather than a virtualisation layer, so no gres reconfiguration of
  the facility is required.

The price is one scheduler negotiation (≥ one scheduling cycle) per
quantum phase, making the strategy attractive exactly when quantum
phases are *not* much shorter than the scheduling cycle — the gap
between VQPU territory (sub-cycle kernels) and workflow territory
(hour-scale steps).
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.allocation import Allocation
from repro.scheduler.job import JobComponent, JobContext, JobSpec
from repro.strategies.application import HybridApplication, PhaseKind
from repro.strategies.base import (
    Environment,
    IntegrationStrategy,
    StrategyRun,
)

#: Walltime safety factor when no walltime is given: attach waits
#: make runtime less predictable than a rigid job's.
WALLTIME_SAFETY = 3.0


class ElasticQPUStrategy(IntegrationStrategy):
    """Single classical job that attaches/detaches its QPU per phase.

    Parameters
    ----------
    attach_overhead:
        Application-side cost per attach (context/program upload to
        the freshly granted device), seconds.

    The attached quantum component is one front-end node holding the
    QPU gres.
    """

    name = "elastic"

    def __init__(
        self,
        attach_overhead: float = 1.0,
        walltime: Optional[float] = None,
    ) -> None:
        self.attach_overhead = attach_overhead
        self.walltime = walltime

    def _walltime_for(self, env: Environment, app: HybridApplication) -> float:
        if self.walltime is not None:
            return self.walltime
        technology = env.planning_technology(app)
        overheads = app.quantum_phase_count * self.attach_overhead
        return (
            app.ideal_makespan(technology) + overheads
        ) * WALLTIME_SAFETY

    def launch(self, env: Environment, app: HybridApplication) -> StrategyRun:
        record = self._new_record(env, app)
        done = env.kernel.event()
        walltime = self._walltime_for(env, app)
        strategy = self
        quantum_walltime = walltime  # per-attach lease cap

        def work(ctx: JobContext):
            record.start_time = ctx.now
            record.queue_waits.append(ctx.now - record.submit_time)
            attach_waits = []
            qpu_held = 0.0
            for phase in app.phases:
                if phase.kind == PhaseKind.CLASSICAL:
                    duration = app.classical_time(
                        phase, app.classical_nodes
                    )
                    if duration > 0:
                        yield ctx.timeout(duration)
                    record.classical_useful_node_seconds += (
                        duration * app.classical_nodes
                    )
                    continue
                # Quantum phase: attach the QPU component on demand.
                requested_at = ctx.now
                allocation: Allocation = yield ctx.attach_component(
                    JobComponent(
                        "quantum", 1, quantum_walltime, gres={"qpu": 1}
                    )
                )
                attach_waits.append(ctx.now - requested_at)
                attached_at = ctx.now
                if strategy.attach_overhead > 0:
                    yield ctx.timeout(strategy.attach_overhead)
                device = allocation.gres_devices("qpu")[0]
                assert phase.circuit is not None
                result = yield device.run(
                    phase.circuit, phase.shots, submitter=app.name
                )
                record.quantum_access_waits.append(result.queue_time)
                record.qpu_busy_seconds += result.execution_time
                record.qpu_calibration_seconds += result.calibration_time
                qpu_held += ctx.now - attached_at
                ctx.detach_component("quantum")
            record.qpu_held_seconds = qpu_held
            record.details["attach_waits_s"] = attach_waits
            record.details["attach_overhead_s"] = strategy.attach_overhead

        spec = JobSpec(
            name=f"{app.name}:elastic",
            components=[
                JobComponent("classical", app.classical_nodes, walltime)
            ],
            user=app.name,
            work=work,
            tags={"strategy": self.name, "app": app.name},
        )
        job = env.scheduler.submit(spec)
        record.details["walltime_s"] = walltime

        def on_finished(event) -> None:
            record.end_time = env.kernel.now
            record.details["final_state"] = event.value.value
            if record.start_time is not None:
                held = record.end_time - record.start_time
                record.classical_held_node_seconds = (
                    app.classical_nodes * held
                )
            done.succeed(record)

        job.finished.callbacks.append(on_finished)
        return StrategyRun(record, done)
