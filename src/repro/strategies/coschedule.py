"""S0 — exclusive co-scheduling (the paper's Listing 1 baseline).

One heterogeneous job allocates the classical nodes *and* the QPU gres
for the whole walltime.  Whatever phase is not running leaves the other
side idle-but-held: with a fast (superconducting) QPU the quantum side
is wasted; with a slow (neutral-atom) QPU the classical side is —
"simple co-scheduling with exclusive QPU access is inadequate"
(Section 3).
"""

from __future__ import annotations

from typing import Optional

from repro.scheduler.job import JobComponent, JobContext, JobSpec, JobState
from repro.strategies.application import HybridApplication
from repro.strategies.base import (
    Environment,
    IntegrationStrategy,
    StrategyRun,
)
from repro.strategies.phases import execute_phases

#: Default safety factor applied to the ideal makespan when the user
#: does not give an explicit walltime (users overestimate; so do we).
WALLTIME_SAFETY = 2.0


class CoScheduleStrategy(IntegrationStrategy):
    """Single hetjob holding classical nodes + QPU for the whole run.

    Parameters
    ----------
    walltime:
        Explicit walltime for both components (Listing 1 uses one
        hour).  When ``None``, the ideal makespan times
        :data:`WALLTIME_SAFETY` is requested — mirroring users who size
        walltime from an estimate.
    hold_full_walltime:
        If True, the job does not exit when the application finishes:
        it occupies its allocation until the walltime expires, the
        worst-case (but common, for interactive-style reservations)
        behaviour the paper's Listing 1 example describes.

    The quantum component is one front-end node holding the QPU gres.
    """

    name = "coschedule"

    def __init__(
        self,
        walltime: Optional[float] = None,
        hold_full_walltime: bool = False,
    ) -> None:
        self.walltime = walltime
        self.hold_full_walltime = hold_full_walltime

    def _walltime_for(self, env: Environment, app: HybridApplication) -> float:
        if self.walltime is not None:
            return self.walltime
        technology = env.planning_technology(app)
        return app.ideal_makespan(technology) * WALLTIME_SAFETY

    def launch(self, env: Environment, app: HybridApplication) -> StrategyRun:
        record = self._new_record(env, app)
        done = env.kernel.event()
        walltime = self._walltime_for(env, app)
        strategy = self

        def work(ctx: JobContext):
            record.start_time = ctx.now
            record.queue_waits.append(ctx.now - record.submit_time)
            device = ctx.first_qpu()
            yield from execute_phases(
                app,
                ctx,
                record,
                qpu_device=device,
                nodes_getter=lambda: app.classical_nodes,
            )
            if strategy.hold_full_walltime:
                # Idle out the rest of the reservation (Listing 1 style);
                # exit a hair before the limit so the scheduler records a
                # clean completion rather than a walltime kill.
                remaining = (record.start_time + walltime) - ctx.now - 1e-6
                if remaining > 0:
                    record.details["idle_tail_s"] = remaining
                    yield ctx.timeout(remaining)

        spec = JobSpec(
            name=f"{app.name}:coschedule",
            components=[
                JobComponent(
                    "classical", app.classical_nodes, walltime
                ),
                JobComponent("quantum", 1, walltime, gres={"qpu": 1}),
            ],
            user=app.name,
            work=work,
            tags={"strategy": self.name, "app": app.name},
        )
        job = env.scheduler.submit(spec)
        record.details["walltime_s"] = walltime

        def on_finished(event) -> None:
            end = env.kernel.now
            record.end_time = end
            state: JobState = event.value
            record.details["final_state"] = state.value
            if record.start_time is not None:
                held = end - record.start_time
                record.classical_held_node_seconds = (
                    app.classical_nodes * held
                )
                record.qpu_held_seconds = held
            done.succeed(record)

        job.finished.callbacks.append(on_finished)
        return StrategyRun(record, done)
