"""S1 — loosely-coupled workflows (paper Fig 2).

A workflow manager (Nextflow/StreamFlow/PyCOMPSs in the paper; a
generic DAG engine here) submits each step as an *independent* batch
job once its dependencies complete.  Resources are held only while a
step runs — utilisation of the scarce resource improves — but every
step pays a queue wait, which dominates when steps are short
("the queuing time that each step has to go through may introduce a
significant overhead when its duration outweighs the length of the
computation").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import WorkflowError
from repro.quantum.circuit import QuantumResult
from repro.scheduler.job import JobComponent, JobContext, JobSpec, JobState
from repro.strategies.application import HybridApplication, PhaseKind
from repro.strategies.base import (
    Environment,
    IntegrationStrategy,
    StrategyRun,
)

#: Safety factor applied to estimated step durations when deriving
#: per-step walltimes.
STEP_WALLTIME_SAFETY = 1.5
#: Floor for step walltimes: very short steps still request a sane
#: minimum, as real sites enforce (and users request round numbers).
MIN_STEP_WALLTIME = 60.0


@dataclass
class WorkflowStep:
    """One node of a workflow DAG."""

    name: str
    spec_factory: Callable[[], JobSpec]
    dependencies: List[str] = field(default_factory=list)


class Workflow:
    """A named DAG of :class:`WorkflowStep`."""

    def __init__(self, name: str, steps: List[WorkflowStep]) -> None:
        self.name = name
        self.steps: Dict[str, WorkflowStep] = {}
        for step in steps:
            if step.name in self.steps:
                raise WorkflowError(f"duplicate step name {step.name!r}")
            self.steps[step.name] = step
        self._validate()

    def _validate(self) -> None:
        # Unknown dependencies.
        for step in self.steps.values():
            for dep in step.dependencies:
                if dep not in self.steps:
                    raise WorkflowError(
                        f"step {step.name!r} depends on unknown {dep!r}"
                    )
        # Cycle detection (iterative DFS, three-colour).
        WHITE, GREY, BLACK = 0, 1, 2
        colour = {name: WHITE for name in self.steps}
        for root in self.steps:
            if colour[root] != WHITE:
                continue
            stack = [(root, iter(self.steps[root].dependencies))]
            colour[root] = GREY
            while stack:
                name, deps = stack[-1]
                advanced = False
                for dep in deps:
                    if colour[dep] == GREY:
                        raise WorkflowError(
                            f"workflow {self.name!r} has a cycle through "
                            f"{dep!r}"
                        )
                    if colour[dep] == WHITE:
                        colour[dep] = GREY
                        stack.append(
                            (dep, iter(self.steps[dep].dependencies))
                        )
                        advanced = True
                        break
                if not advanced:
                    colour[name] = BLACK
                    stack.pop()

    def topological_order(self) -> List[str]:
        """Step names in dependency order."""
        order: List[str] = []
        visited: Dict[str, bool] = {}

        def visit(name: str) -> None:
            if visited.get(name):
                return
            visited[name] = True
            for dep in self.steps[name].dependencies:
                visit(dep)
            order.append(name)

        for name in self.steps:
            visit(name)
        return order

    def __len__(self) -> int:
        return len(self.steps)


class WorkflowEngine:
    """Submits workflow steps as independent jobs when ready (Fig 2).

    Two execution modes mirror how real workflow managers drive batch
    systems:

    - *engine-driven* (default): the engine watches step completions
      and submits successors itself (Nextflow/StreamFlow style);
    - *scheduler-driven* (``use_scheduler_dependencies=True``): every
      step is submitted up front with ``--dependency=afterok`` chains
      and the batch scheduler orders them (shell-script + sbatch
      style).
    """

    def __init__(
        self, env: Environment, use_scheduler_dependencies: bool = False
    ) -> None:
        self.env = env
        self.use_scheduler_dependencies = use_scheduler_dependencies

    def execute(self, workflow: Workflow):
        """Generator running the whole DAG; yields until completion.

        Steps whose dependencies are satisfied are submitted in
        parallel.  A failed/timed-out step aborts the workflow with
        :class:`WorkflowError`.

        Returns a dict of step name → finished
        :class:`~repro.scheduler.job.Job`.
        """
        if self.use_scheduler_dependencies:
            return (yield from self._execute_via_scheduler(workflow))
        return (yield from self._execute_engine_driven(workflow))

    def _execute_via_scheduler(self, workflow: Workflow):
        """Submit the whole DAG at once with afterok dependencies."""
        kernel = self.env.kernel
        scheduler = self.env.scheduler
        jobs: Dict[str, object] = {}
        for name in workflow.topological_order():
            step = workflow.steps[name]
            spec = step.spec_factory()
            spec.after_ok = [
                *spec.after_ok,
                *(jobs[dep].id for dep in step.dependencies),
            ]
            jobs[name] = scheduler.submit(spec)
        yield kernel.all_of([job.finished for job in jobs.values()])
        for name, job in jobs.items():
            state = job.finished.value
            if state != JobState.COMPLETED:
                raise WorkflowError(
                    f"workflow {workflow.name!r}: step {name!r} "
                    f"ended {state.value}"
                )
        return jobs

    def _execute_engine_driven(self, workflow: Workflow):
        kernel = self.env.kernel
        scheduler = self.env.scheduler
        finished: Dict[str, JobState] = {}
        jobs: Dict[str, object] = {}
        pending = dict(workflow.steps)

        while pending or any(
            name not in finished for name in jobs
        ):
            # Submit every step whose dependencies are all complete.
            ready = [
                step
                for step in pending.values()
                if all(dep in finished for dep in step.dependencies)
            ]
            for step in ready:
                del pending[step.name]
                jobs[step.name] = scheduler.submit(step.spec_factory())

            running_waits = [
                jobs[name].finished
                for name in jobs
                if name not in finished
            ]
            if not running_waits:
                if pending:
                    raise WorkflowError(
                        f"workflow {workflow.name!r} deadlocked with "
                        f"pending steps {sorted(pending)}"
                    )
                break
            outcome = yield kernel.any_of(running_waits)
            for name, job in jobs.items():
                if name in finished:
                    continue
                if job.finished.processed:
                    state = job.finished.value
                    finished[name] = state
                    if state != JobState.COMPLETED:
                        raise WorkflowError(
                            f"workflow {workflow.name!r}: step {name!r} "
                            f"ended {state.value}"
                        )
            del outcome
        return jobs


class WorkflowStrategy(IntegrationStrategy):
    """Run a hybrid application as a linear workflow of per-phase jobs."""

    name = "workflow"

    def __init__(
        self,
        use_scheduler_dependencies: bool = False,
    ) -> None:
        self.use_scheduler_dependencies = use_scheduler_dependencies

    # -- workflow construction ------------------------------------------------------

    def build_workflow(
        self, env: Environment, app: HybridApplication, record
    ) -> Workflow:
        """One step per phase, chained linearly."""
        technology = env.planning_technology(app)
        steps: List[WorkflowStep] = []
        previous: Optional[str] = None
        for index, phase in enumerate(app.phases):
            name = f"{app.name}:step{index:03d}:{phase.kind.value}"
            deps = [previous] if previous else []
            if phase.kind == PhaseKind.CLASSICAL:
                spec_factory = self._classical_spec_factory(
                    app, phase, name, record
                )
            else:
                spec_factory = self._quantum_spec_factory(
                    app, phase, name, technology, record
                )
            steps.append(WorkflowStep(name, spec_factory, deps))
            previous = name
        return Workflow(app.name, steps)

    def _step_walltime(self, estimate: float) -> float:
        return max(estimate * STEP_WALLTIME_SAFETY, MIN_STEP_WALLTIME)

    def _classical_spec_factory(self, app, phase, name, record):
        duration = app.classical_time(phase, app.classical_nodes)
        walltime = self._step_walltime(duration)

        def factory() -> JobSpec:
            def work(ctx: JobContext):
                if duration > 0:
                    yield ctx.timeout(duration)
                record.classical_useful_node_seconds += (
                    duration * app.classical_nodes
                )

            return JobSpec(
                name=name,
                components=[
                    JobComponent("classical", app.classical_nodes, walltime)
                ],
                user=app.name,
                work=work,
                tags={"strategy": self.name, "app": app.name},
            )

        return factory

    def _quantum_spec_factory(self, app, phase, name, technology, record):
        # Provision for geometry calibration plus one periodic
        # calibration pass: either may precede the kernel at the device.
        estimate = technology.job_time_with_calibration(
            phase.circuit, phase.shots
        )
        if technology.calibration_interval != float("inf"):
            estimate += technology.calibration_duration
        walltime = self._step_walltime(estimate)

        def factory() -> JobSpec:
            def work(ctx: JobContext):
                device = ctx.first_qpu()
                result: QuantumResult = yield device.run(
                    phase.circuit, phase.shots, submitter=app.name
                )
                record.quantum_access_waits.append(result.queue_time)
                record.qpu_busy_seconds += result.execution_time
                record.qpu_calibration_seconds += result.calibration_time

            return JobSpec(
                name=name,
                components=[
                    JobComponent("quantum", 1, walltime, gres={"qpu": 1})
                ],
                user=app.name,
                work=work,
                tags={"strategy": self.name, "app": app.name},
            )

        return factory

    # -- launch ----------------------------------------------------------------------

    def launch(self, env: Environment, app: HybridApplication) -> StrategyRun:
        record = self._new_record(env, app)
        done = env.kernel.event()
        workflow = self.build_workflow(env, app, record)
        engine = WorkflowEngine(
            env,
            use_scheduler_dependencies=self.use_scheduler_dependencies,
        )

        def runner():
            try:
                jobs = yield from engine.execute(workflow)
            except WorkflowError as error:
                record.end_time = env.kernel.now
                record.details["error"] = str(error)
                done.succeed(record)
                return
            record.end_time = env.kernel.now
            starts = [
                job.start_time
                for job in jobs.values()
                if job.start_time is not None
            ]
            record.start_time = min(starts) if starts else None
            for job in jobs.values():
                wait = job.wait_time
                if wait is not None:
                    record.queue_waits.append(wait)
                if job.start_time is None:
                    continue
                end = (
                    job.end_time
                    if job.end_time is not None
                    else env.kernel.now
                )
                held = end - job.start_time
                for allocation in job.allocations:
                    if allocation.partition_name == "classical":
                        record.classical_held_node_seconds += (
                            allocation.node_count * held
                        )
                    else:
                        record.qpu_held_seconds += held
            record.details["steps"] = len(workflow)
            record.details["final_state"] = "completed"
            done.succeed(record)

        env.kernel.process(runner(), name=f"workflow:{app.name}")
        return StrategyRun(record, done)
