"""S3 — malleable jobs (paper Fig 4).

The application runs as a *single* batch job (one queue wait total) but
renegotiates its classical allocation at phase boundaries: before a
quantum phase it shrinks to ``min_classical_nodes``, returning nodes to
the scheduler for other jobs; afterwards it grows back.  "The execution
is treated as a single job rather than a sequence of tasks, avoiding
repeated queuing ... during the quantum phase, the job can retain
minimal classical resources, enabling a faster resumption of classical
computation afterward."

The price is application complexity, modelled here as an explicit
``reconfiguration_cost`` paid at every resize (data redistribution,
MPI communicator reconstruction — what DMRlib/AMPI would do), and the
risk that regrowth must wait for free nodes.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.scheduler.job import JobComponent, JobContext, JobSpec
from repro.strategies.application import HybridApplication
from repro.strategies.base import (
    Environment,
    HeldIntegrator,
    IntegrationStrategy,
    StrategyRun,
)
from repro.strategies.phases import execute_phases

#: Walltime safety factor when no walltime is given (regrow waits
#: make malleable jobs' runtime less predictable than rigid ones, so
#: be generous).
WALLTIME_SAFETY = 3.0


class GrowMode(enum.Enum):
    """How the application handles regrowth after a quantum phase."""

    #: Wait until the scheduler grants the full grow request.
    BLOCK = "block"
    #: Continue at the shrunken size; absorb granted nodes at the next
    #: phase boundary ("continue with fewer resources, accepting slower
    #: performance in exchange for reduced queue times").
    OPPORTUNISTIC = "opportunistic"


class MalleableStrategy(IntegrationStrategy):
    """Single malleable hetjob with shrink/grow around quantum phases.

    Parameters
    ----------
    reconfiguration_cost:
        Seconds paid by the application at every resize.
    grow_mode:
        :attr:`GrowMode.BLOCK` (default) or
        :attr:`GrowMode.OPPORTUNISTIC`.
    walltime:
        Explicit job walltime; defaults to ideal makespan times
        :data:`WALLTIME_SAFETY`.
    """

    name = "malleable"

    def __init__(
        self,
        reconfiguration_cost: float = 5.0,
        grow_mode: GrowMode = GrowMode.BLOCK,
        walltime: Optional[float] = None,
    ) -> None:
        self.reconfiguration_cost = reconfiguration_cost
        self.grow_mode = grow_mode
        self.walltime = walltime

    def _walltime_for(self, env: Environment, app: HybridApplication) -> float:
        if self.walltime is not None:
            return self.walltime
        technology = env.planning_technology(app)
        resizes = 2.0 * app.quantum_phase_count * self.reconfiguration_cost
        return (
            app.ideal_makespan(technology) + resizes
        ) * WALLTIME_SAFETY

    def launch(self, env: Environment, app: HybridApplication) -> StrategyRun:
        record = self._new_record(env, app)
        done = env.kernel.event()
        walltime = self._walltime_for(env, app)
        strategy = self

        def work(ctx: JobContext):
            record.start_time = ctx.now
            record.queue_waits.append(ctx.now - record.submit_time)
            device = ctx.first_qpu()
            held = HeldIntegrator(ctx.kernel)
            held.set_count(app.classical_nodes)
            grow_waits = []
            resizes = {"count": 0}
            pending_grow = {"event": None, "count": 0}

            def current_nodes() -> int:
                return ctx.nodes_in("classical")

            def absorb_pending_grow():
                # Opportunistic mode: account nodes granted mid-phase.
                event = pending_grow["event"]
                if event is not None and event.processed:
                    pending_grow["event"] = None
                    pending_grow["count"] = 0
                    held.set_count(current_nodes())

            def shrink_for_quantum(phase):
                absorb_pending_grow()
                release = current_nodes() - app.min_classical_nodes
                if release > 0:
                    ctx.shrink("classical", release)
                    resizes["count"] += 1
                    held.set_count(current_nodes())
                    if strategy.reconfiguration_cost > 0:
                        yield ctx.timeout(strategy.reconfiguration_cost)

            def grow_after_quantum(phase):
                deficit = app.classical_nodes - current_nodes()
                if deficit <= 0:
                    return
                grow_event = ctx.grow("classical", deficit)
                if strategy.grow_mode is GrowMode.BLOCK:
                    requested_at = ctx.now
                    yield grow_event
                    grow_waits.append(ctx.now - requested_at)
                    resizes["count"] += 1
                    held.set_count(current_nodes())
                    if strategy.reconfiguration_cost > 0:
                        yield ctx.timeout(strategy.reconfiguration_cost)
                else:
                    pending_grow["event"] = grow_event
                    pending_grow["count"] = deficit

            def nodes_for_phase() -> int:
                absorb_pending_grow()
                return current_nodes()

            yield from execute_phases(
                app,
                ctx,
                record,
                qpu_device=device,
                nodes_getter=nodes_for_phase,
                before_quantum=shrink_for_quantum,
                after_quantum=grow_after_quantum,
            )
            record.classical_held_node_seconds = held.finish()
            record.details["resizes"] = resizes["count"]
            record.details["grow_waits_s"] = grow_waits
            record.details["reconfiguration_cost_s"] = (
                strategy.reconfiguration_cost
            )

        spec = JobSpec(
            name=f"{app.name}:malleable",
            components=[
                JobComponent("classical", app.classical_nodes, walltime),
                JobComponent("quantum", 1, walltime, gres={"qpu": 1}),
            ],
            user=app.name,
            work=work,
            tags={"strategy": self.name, "app": app.name},
        )
        job = env.scheduler.submit(spec)
        record.details["walltime_s"] = walltime
        record.details["grow_mode"] = self.grow_mode.value

        def on_finished(event) -> None:
            record.end_time = env.kernel.now
            record.details["final_state"] = event.value.value
            if record.start_time is not None:
                record.qpu_held_seconds = (
                    record.end_time - record.start_time
                )
            done.succeed(record)

        job.finished.callbacks.append(on_finished)
        return StrategyRun(record, done)
