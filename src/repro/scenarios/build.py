"""Build a live facility from a :class:`ScenarioSpec`.

One pipeline — :func:`build` — turns the declarative scenario tree into
the :class:`~repro.strategies.base.Environment` every strategy and
experiment runs against: kernel, random streams, QPU fleet (optionally
virtualised), two-partition cluster, batch scheduler, and the
scenario's fault schedule installed into the kernel (timed node
fail/repair/drain/undrain events, booked QPU maintenance windows and
optional stochastic failure churn).

Construction order is fixed: kernel, streams, QPUs, cluster,
scheduler.  The kernel's event sequence follows it, so keeping the
order is what lets a spec reproduce its results event for event.

:func:`run_scenario` additionally injects the spec's background
workload, drives the kernel to the horizon and returns facility-level
metrics — the CLI's ``scenario run`` and the generic sweep runner both
go through it.
"""

from __future__ import annotations

import dataclasses
import math
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.builders import QUANTUM_PARTITION, build_hpcqc_cluster
from repro.cluster.cluster import Cluster
from repro.cluster.failures import FailureInjector
from repro.cluster.node import Node
from repro.errors import ConfigurationError
from repro.quantum.fleet import QPUFleet
from repro.quantum.qpu import QPU
from repro.quantum.technology import TECHNOLOGIES
from repro.scenarios.spec import (
    FaultSchedule,
    FleetSpec,
    ScenarioSpec,
    TraceSpec,
    WorkloadSpec,
)
from repro.scheduler.backfill import make_policy
from repro.scheduler.job import Job, JobComponent, JobState
from repro.scheduler.priority import MultifactorPriority, PriorityWeights
from repro.sim.kernel import Kernel
from repro.sim.rng import RandomStreams, derive_seed
from repro.strategies.base import Environment
from repro.strategies.vqpu import VirtualQPUPool
from repro.workloads.arrivals import DiurnalArrivals
from repro.workloads.distributions import LogUniform, PowerOfTwoNodes
from repro.workloads.generator import submit_trace
from repro.workloads.swf import (
    TraceJob,
    clip_trace,
    jitter_trace,
    loop_trace,
    read_swf,
    rescale_trace,
    synthesise_trace,
    truncate_trace,
)


def build(spec: ScenarioSpec, seed: Optional[int] = None) -> Environment:
    """Materialise ``spec`` into a fresh :class:`Environment`.

    ``seed`` overrides ``spec.seed`` (sweeps derive one seed per grid
    point and pass it here).  The spec is validated first, so malformed
    scenarios fail before any simulation state exists.
    """
    spec.validate()
    kernel = Kernel()
    streams = RandomStreams(spec.seed if seed is None else seed)
    qpus, devices, pools = build_fleet_devices(
        kernel, spec.fleet, streams
    )

    # One front-end node per (virtual) QPU gres unit: node allocation is
    # whole-node exclusive, so co-tenancy requires one schedulable node
    # slot per virtual unit (gateway nodes are cheap in practice).
    cluster: Cluster = build_hpcqc_cluster(
        kernel,
        classical_nodes=spec.topology.classical_nodes,
        qpu_devices=devices,
        qpus_per_node=spec.topology.qpus_per_node,
        classical_max_walltime=spec.topology.classical_max_walltime,
        quantum_max_walltime=spec.topology.quantum_max_walltime,
        cores_per_node=spec.topology.cores_per_node,
        record_history=spec.monitoring.record_history,
    )
    scheduler_priority = MultifactorPriority(
        weights=PriorityWeights(
            age=spec.policy.priority_age,
            size=spec.policy.priority_size,
            fairshare=spec.policy.priority_fairshare,
            qos=spec.policy.priority_qos,
        ),
        total_nodes=cluster.total_nodes(),
    )
    from repro.scheduler.scheduler import BatchScheduler

    scheduler = BatchScheduler(
        kernel,
        cluster,
        policy=make_policy(spec.policy.policy),
        priority=scheduler_priority,
        cycle_time=spec.policy.scheduling_cycle,
    )
    env = Environment(
        kernel=kernel,
        cluster=cluster,
        scheduler=scheduler,
        qpus=qpus,
        streams=streams,
        vqpu_pools=pools,
        fleet=QPUFleet(qpus, policy=spec.fleet.routing),
    )
    install_faults(env, spec.faults)
    return env


def fleet_device_rows(fleet: FleetSpec) -> List[Dict[str, Any]]:
    """One row per physical device a :class:`FleetSpec` will build.

    Rows carry ``name``, ``technology``, ``qubits`` and ``vqpus`` in
    construction order; the build pipeline and the CLI's device table
    both read fleet composition from here, so the table always shows
    exactly the devices an environment will contain.  Names are
    ``{prefix}-{index}`` with the prefix taken from the group's
    ``name`` (default: the technology name) and indices counted per
    prefix across the whole fleet — the flat single-technology
    shorthand therefore reproduces the historical
    ``{technology}-{index}`` names byte for byte.
    """
    rows: List[Dict[str, Any]] = []
    prefix_counters: Dict[str, int] = {}
    for group in fleet.canonical_devices():
        technology = TECHNOLOGIES[group.technology]
        prefix = group.name or technology.name
        for _ in range(group.count):
            index = prefix_counters.get(prefix, 0)
            prefix_counters[prefix] = index + 1
            rows.append(
                {
                    "name": f"{prefix}-{index}",
                    "technology": group.technology,
                    "qubits": technology.num_qubits,
                    "vqpus": group.vqpus_per_qpu,
                }
            )
    return rows


def build_fleet_devices(
    kernel: Kernel, fleet: FleetSpec, streams: RandomStreams
) -> Tuple[List[QPU], List[object], List[VirtualQPUPool]]:
    """Materialise a :class:`FleetSpec` into physical and gres devices.

    Returns ``(qpus, gres_devices, vqpu_pools)``: the physical devices
    in declaration order, the (possibly virtualised) device objects to
    expose as ``qpu`` gres units, and any virtual-QPU pools created.
    Composition and naming come from :func:`fleet_device_rows`.
    """
    qpus: List[QPU] = []
    gres_devices: List[object] = []
    pools: List[VirtualQPUPool] = []
    for row in fleet_device_rows(fleet):
        qpu = QPU(
            kernel,
            TECHNOLOGIES[row["technology"]],
            name=row["name"],
            streams=streams if fleet.jitter else None,
        )
        qpus.append(qpu)
        if row["vqpus"] > 1:
            pool = VirtualQPUPool(qpu, row["vqpus"])
            pools.append(pool)
            gres_devices.extend(pool.virtual_qpus)
        else:
            gres_devices.append(qpu)
    return qpus, gres_devices, pools


# -- fault installation ------------------------------------------------------


def install_faults(env: Environment, faults: FaultSchedule) -> None:
    """Install ``faults`` into a live environment's kernel.

    Deterministic events run through one driver process (stable order:
    time, then declaration order); maintenance windows are booked on
    the named QPUs immediately; stochastic churn attaches a
    :class:`FailureInjector` to the named partition.  Failed nodes
    report evictions to the scheduler so jobs are requeued, exactly as
    the random injector does.  An empty schedule installs nothing —
    not even a kernel process.
    """
    if faults.is_empty():
        return
    nodes = _nodes_by_name(env)
    for event in faults.events:
        if event.node not in nodes:
            raise ConfigurationError(
                f"fault event targets unknown node {event.node!r}"
            )
    qpus = {qpu.name: qpu for qpu in env.qpus}
    for window in faults.maintenance:
        if window.qpu not in qpus:
            raise ConfigurationError(
                f"maintenance window targets unknown QPU {window.qpu!r}; "
                f"fleet: {sorted(qpus)}"
            )
        qpus[window.qpu].schedule_maintenance(window.start, window.duration)
    if faults.events:
        env.kernel.process(
            _fault_driver(env, nodes, faults), name="faults:schedule"
        )
    if faults.random_failures is not None:
        churn = faults.random_failures
        partition = env.cluster.partition(churn.partition)
        injector = FailureInjector(
            env.kernel,
            partition.nodes,
            mtbf=churn.mtbf,
            mean_repair_time=churn.mean_repair_time,
            streams=env.streams,
            on_failure=env.scheduler.on_node_failure,
        )
        env.fault_injectors.append(injector)


def _nodes_by_name(env: Environment) -> Dict[str, Node]:
    return {
        node.name: node
        for partition in env.cluster.partitions.values()
        for node in partition.nodes
    }


def _fault_driver(env: Environment, nodes: Dict[str, Node], faults):
    """Replay the deterministic fault events in (time, declaration) order."""
    ordered = sorted(
        enumerate(faults.events), key=lambda pair: (pair[1].time, pair[0])
    )
    for _, event in ordered:
        if event.time > env.kernel.now:
            yield env.kernel.timeout(event.time - env.kernel.now)
        node = nodes[event.node]
        if event.action == "fail":
            evicted = node.mark_down()
            env.scheduler.on_node_failure(node, evicted)
        elif event.action == "repair":
            node.mark_up()
        elif event.action == "drain":
            node.drain()
        else:  # "undrain" — validated upstream
            node.mark_up()


# -- background workload -----------------------------------------------------


def offered_load_interarrival(
    rho: float,
    cluster_nodes: int,
    mean_job_nodes: float,
    mean_job_runtime: float,
) -> float:
    """Mean interarrival producing offered load ``rho`` on the partition.

    Offered load is node-seconds demanded per node-second of capacity:
    ``rho = nodes × runtime / (interarrival × cluster_nodes)``.

    >>> offered_load_interarrival(
    ...     1.0, cluster_nodes=32, mean_job_nodes=4, mean_job_runtime=800
    ... )
    100.0
    """
    if rho <= 0:
        raise ValueError("rho must be positive")
    return (mean_job_nodes * mean_job_runtime) / (rho * cluster_nodes)


def background_trace(
    env: Environment, workload: WorkloadSpec
) -> List[TraceJob]:
    """Synthesise the scenario's background trace (empty if rho == 0).

    The draw is a pure function of the ``background`` stream's state,
    the workload and the classical partition's width, so it is
    memoised on exactly those: a repeat (another strategy on the same
    matched-universe seed, another round at the same seed) returns the
    same jobs and leaves the stream in the same state as drawing again
    would, whether or not the stream was fresh.
    """
    if workload.background_rho <= 0 or workload.horizon <= 0:
        return []
    rng = env.streams.stream("background")
    jobs, state = _drawn_background(
        _frozen(rng.bit_generator.state),
        workload,
        env.cluster.partition("classical").node_count,
    )
    rng.bit_generator.state = _thawed(state)
    return list(jobs)


@lru_cache(maxsize=32)
def _drawn_background(
    state: Tuple, workload: WorkloadSpec, cluster_nodes: int
) -> Tuple[Tuple[TraceJob, ...], Tuple]:
    """``(jobs, state after drawing)`` for one background draw.

    Replays the draw on a private generator set to ``state`` (streams
    are :func:`numpy.random.default_rng` generators).  The bound covers
    a matched-universe grid (E6 needs 6 distinct draws per seed); one
    ``large-1k`` trace holds about 780 KiB.
    """
    rng = np.random.default_rng(0)
    rng.bit_generator.state = _thawed(state)
    jobs = _synthesise_background(rng, workload, cluster_nodes)
    return tuple(jobs), _frozen(rng.bit_generator.state)


def _frozen(state: Dict[str, Any]) -> Tuple:
    """A bit generator's state dict as nested, hashable item tuples."""
    return tuple(
        (key, _frozen(value) if isinstance(value, dict) else value)
        for key, value in state.items()
    )


def _thawed(state: Tuple) -> Dict[str, Any]:
    """Inverse of :func:`_frozen`."""
    return {
        key: _thawed(value) if isinstance(value, tuple) else value
        for key, value in state
    }


def _synthesise_background(
    rng: np.random.Generator, workload: WorkloadSpec, cluster_nodes: int
) -> List[TraceJob]:
    sizes = PowerOfTwoNodes(workload.min_nodes, workload.max_nodes)
    runtimes = LogUniform(workload.min_runtime, workload.max_runtime)
    interarrival = offered_load_interarrival(
        workload.background_rho, cluster_nodes, sizes.mean(), runtimes.mean()
    )
    if workload.arrivals == "poisson":
        job_count = max(int(workload.horizon / interarrival) + 1, 1)
        return synthesise_trace(
            rng,
            job_count=job_count,
            mean_interarrival=interarrival,
            runtimes=runtimes,
            sizes=sizes,
        )
    # Diurnal (bursty) arrivals: same per-job marginals as the Poisson
    # trace, but submission times from the thinned day/night process.
    # times() is already bounded by the horizon; no count cap, so dense
    # realisations keep their late-horizon bursts and the delivered
    # offered load stays centred on rho.
    arrivals = DiurnalArrivals(
        interarrival,
        amplitude=workload.burst_amplitude,
        period=workload.burst_period,
    )
    jobs: List[TraceJob] = []
    walltime_overestimate = 2.0
    for index, submit in enumerate(
        arrivals.times(rng, workload.horizon)
    ):
        runtime = float(runtimes.sample(rng))
        jobs.append(
            TraceJob(
                job_id=index + 1,
                submit_time=submit,
                runtime=runtime,
                nodes=int(sizes.sample(rng)),
                requested_walltime=runtime * walltime_overestimate,
                user=f"user{int(rng.integers(0, 8))}",
            )
        )
    return jobs


def install_background(
    env: Environment, workload: WorkloadSpec, until: Optional[float] = None
) -> List[Job]:
    """Submit the scenario's background workload; returns the jobs.

    The returned list fills as jobs reach their submit times.  ``until``
    is the time the run stops at: a job submitted later could never
    fire, so it is not installed.  The trace is still synthesised
    to the workload horizon, so the jobs that remain, and the
    ``background`` stream's state, are what an untrimmed install
    gives.  ``None`` (a run driven to completion) installs every job.
    """
    trace = background_trace(env, workload)
    if until is not None:
        trace = [job for job in trace if job.submit_time <= until]
    if not trace:
        return []
    return submit_trace(env, trace)


# -- trace replay -------------------------------------------------------------

#: Packaged sample traces (checked-in, synthetic, redistributable).
TRACE_DATA_DIR = (
    Path(__file__).resolve().parent.parent / "workloads" / "data"
)


def resolve_trace_path(path: str) -> Path:
    """Locate a :class:`TraceSpec` SWF file.

    Absolute paths are used as-is; relative paths resolve against the
    working directory first and then the packaged sample directory
    (``repro/workloads/data``), so presets can ship a checked-in trace
    while user scenarios reference local files.
    """
    candidate = Path(path)
    if candidate.is_absolute():
        if candidate.is_file():
            return candidate
        raise ConfigurationError(f"trace file not found: {path}")
    tried = []
    for root in (Path.cwd(), TRACE_DATA_DIR):
        resolved = root / candidate
        if resolved.is_file():
            return resolved
        tried.append(str(resolved))
    raise ConfigurationError(
        f"trace file {path!r} not found; tried: {tried}"
    )


@lru_cache(maxsize=32)
def _parsed_swf(
    path: str, mtime_ns: int, size: int
) -> Tuple[TraceJob, ...]:
    """Parsed jobs of one SWF file, memoised per (path, stat).

    Sweeps compile the same trace once per grid point; archive traces
    run to 100k+ lines, so re-parsing would dominate small-horizon
    sweep time.  The stat components key out edits to the file.
    """
    return tuple(read_swf(path))


def load_trace_jobs(trace: TraceSpec) -> List[TraceJob]:
    """The raw jobs a :class:`TraceSpec` names, before replay rules."""
    if trace.path is not None:
        resolved = resolve_trace_path(trace.path)
        stat = resolved.stat()
        return list(
            _parsed_swf(str(resolved), stat.st_mtime_ns, stat.st_size)
        )
    return [
        TraceJob(**dataclasses.asdict(job)) for job in trace.jobs
    ]


def compile_trace(
    trace: TraceSpec,
    horizon: float,
    rng=None,
) -> List[TraceJob]:
    """Apply a :class:`TraceSpec`'s replay rules, in documented order.

    Truncate to ``limit``, rescale times and durations, loop or clip to
    the horizon, then jitter submit times (``rng`` supplies the draws;
    required only when ``trace.jitter > 0``).  Pure given its inputs,
    so two processes compiling the same spec agree job for job.
    """
    jobs = truncate_trace(load_trace_jobs(trace), trace.limit)
    jobs = rescale_trace(jobs, trace.time_scale, trace.runtime_scale)
    if trace.loop:
        jobs = loop_trace(jobs, horizon)
    else:
        jobs = clip_trace(jobs, horizon)
    if trace.jitter > 0:
        if rng is None:
            raise ConfigurationError(
                "trace.jitter > 0 needs a random stream"
            )
        jobs = jitter_trace(jobs, rng, trace.jitter)
    return jobs


#: Quantum-partition mapping: the stable per-job hash threshold used by
#: ``TraceSpec.qpu_fraction`` (seed-independent, so *which* jobs are
#: hybrid never changes between replications).
_QPU_HASH_SCALE = float(2**64)


def _routes_to_qpu(job: TraceJob, fraction: float) -> bool:
    if fraction <= 0.0:
        return False
    if fraction >= 1.0:
        return True
    draw = derive_seed(job.job_id, "trace:qpu-route") / _QPU_HASH_SCALE
    return draw < fraction


def trace_component_mapper(
    env: Environment, trace: TraceSpec
) -> Callable[[TraceJob], Optional[List[JobComponent]]]:
    """The per-job resource mapping a :class:`TraceSpec` describes.

    Jobs land on ``trace.partition``; jobs wider than ``max_nodes``
    (default: the partition width) are clamped, dropped or rejected per
    ``trace.oversize``; a ``qpu_fraction`` subset becomes single-node
    quantum jobs demanding one ``qpu`` gres unit.
    """
    partition = env.cluster.partition(trace.partition)
    cap = partition.node_count
    if trace.max_nodes is not None:
        cap = min(cap, trace.max_nodes)
    if cap < 1:
        raise ConfigurationError(
            f"trace partition {trace.partition!r} has no nodes"
        )

    def mapper(job: TraceJob) -> Optional[List[JobComponent]]:
        if _routes_to_qpu(job, trace.qpu_fraction):
            return [
                JobComponent(
                    QUANTUM_PARTITION,
                    1,
                    job.requested_walltime,
                    gres={"qpu": 1},
                )
            ]
        nodes = job.nodes
        if nodes > cap:
            if trace.oversize == "drop":
                return None
            if trace.oversize == "error":
                raise ConfigurationError(
                    f"trace job {job.job_id} needs {nodes} nodes but "
                    f"partition {trace.partition!r} caps at {cap} "
                    "(oversize='error')"
                )
            nodes = cap
        return [JobComponent(trace.partition, nodes, job.requested_walltime)]

    return mapper


def trace_kernel_worker(
    env: Environment, trace: TraceSpec
) -> Optional[Callable[[TraceJob], Optional[Callable]]]:
    """The fleet-dispatch work mapper for quantum-mapped trace jobs.

    A trace job that lands on the quantum partition carries one
    representative kernel payload
    (:func:`repro.workloads.hybrid.trace_kernel_payload`).  At job
    start the payload is dispatched through the environment's
    :class:`~repro.quantum.fleet.QPUFleet` — the routing policy picks
    the device — while the job occupies its allocation for the trace
    runtime, exactly as a rigid replay would.  ``None`` when the
    workload routes nothing to the fleet.

    Virtualised gres units are the exception: a job holding a
    *virtual* QPU lease dispatches through that lease instead of the
    fleet router, so the pool's admission bound (at most ``V - 1``
    foreign kernels ahead of any request) survives trace replay.
    """
    if trace.qpu_fraction <= 0:
        return None
    from repro.workloads.hybrid import trace_kernel_payload

    fleet = env.fleet
    max_qubits = max(q.technology.num_qubits for q in fleet.qpus)

    def work_for(job: TraceJob) -> Optional[Callable]:
        if not _routes_to_qpu(job, trace.qpu_fraction):
            return None

        def work(ctx):
            device = ctx.first_qpu()
            if isinstance(device, QPU):
                circuit, shots = trace_kernel_payload(
                    job.job_id, max_qubits
                )
                fleet.run(circuit, shots, submitter=job.user)
            else:
                # A virtual QPU lease: stay inside its admission
                # control, clamped to the backing device's register.
                circuit, shots = trace_kernel_payload(
                    job.job_id, device.technology.num_qubits
                )
                device.run(circuit, shots, submitter=job.user)
            yield ctx.timeout(job.runtime)

        return work

    return work_for


def install_trace(
    env: Environment, workload: WorkloadSpec, horizon: float
) -> List[Job]:
    """Submit the scenario's trace replay; returns the jobs.

    No-op (empty list) when the workload has no trace source.  The
    jitter stream is only consumed when ``trace.jitter > 0``, so
    trace-free and jitter-free scenarios draw exactly what they drew
    before trace support existed.
    """
    trace = workload.trace
    if trace is None:
        return []
    rng = (
        env.streams.stream("trace-jitter") if trace.jitter > 0 else None
    )
    jobs = compile_trace(trace, horizon, rng=rng)
    if not jobs:
        return []
    return submit_trace(
        env,
        jobs,
        components_for=trace_component_mapper(env, trace),
        work_for=trace_kernel_worker(env, trace),
    )


# -- end-to-end scenario run -------------------------------------------------

#: Fallback horizon for scenarios that specify no workload horizon.
DEFAULT_HORIZON = 3600.0


def run_scenario(
    spec: ScenarioSpec,
    seed: Optional[int] = None,
    horizon: Optional[float] = None,
) -> Dict[str, Any]:
    """Build, load and drive one scenario; return facility metrics.

    The kernel runs for ``horizon`` simulated seconds (default: the
    workload's horizon, else :data:`DEFAULT_HORIZON` — scenarios with
    stochastic fault churn never quiesce, so an explicit stop time is
    required).  The returned mapping is flat, canonically ordered and
    JSON-representable, so sweep results over scenarios serialise
    byte-identically serial vs parallel.
    """
    until = horizon
    if until is None:
        until = spec.workload.horizon or DEFAULT_HORIZON
    if not 0 < until < math.inf:
        raise ConfigurationError(
            f"horizon must be a finite number of seconds > 0, got {until!r}"
        )
    env = build(spec, seed=seed)
    jobs = install_background(env, spec.workload, until)
    trace_jobs = install_trace(env, spec.workload, until)
    env.kernel.run(until=until)
    completed = sum(
        1 for job in jobs if job.state == JobState.COMPLETED
    )
    metrics: Dict[str, Any] = {
        "scenario": spec.name,
        "seed": spec.seed if seed is None else seed,
        "horizon_s": until,
        "background_jobs": len(jobs),
        "background_completed": completed,
        "queue_depth": env.scheduler.queue_depth,
        "finished_jobs": len(env.scheduler.finished_jobs),
    }
    metrics.update(_trace_metrics(trace_jobs))
    for name in sorted(env.cluster.partitions):
        metrics[f"utilisation_{name}"] = env.cluster.node_utilisation(name)
    for index, qpu in enumerate(env.qpus):
        metrics[f"qpu{index}_utilisation"] = qpu.utilisation
        metrics[f"qpu{index}_maintenance"] = qpu.maintenance_performed
    metrics["fleet_policy"] = env.fleet.policy
    metrics["fleet_routed_total"] = env.fleet.total_routed
    for qpu in env.fleet.qpus:
        routed = env.fleet.routed_counts[qpu.name]
        metrics[f"device_{qpu.name}_routed"] = routed
        metrics[f"device_{qpu.name}_executed"] = qpu.jobs_executed
        metrics[f"device_{qpu.name}_utilisation"] = qpu.utilisation
    failures = sum(i.failure_count for i in env.fault_injectors)
    repairs = sum(i.repair_count for i in env.fault_injectors)
    metrics["random_failures"] = failures
    metrics["random_repairs"] = repairs
    metrics["node_states"] = _node_state_counts(env)
    return metrics


def _trace_metrics(trace_jobs: List[Job]) -> Dict[str, Any]:
    """Flat replay metrics: counts plus mean wait and bounded slowdown."""
    from repro.metrics.stats import mean

    completed = [
        job for job in trace_jobs if job.state == JobState.COMPLETED
    ]
    waits = [
        job.wait_time for job in completed if job.wait_time is not None
    ]
    slowdowns = [
        slowdown
        for slowdown in (job.slowdown() for job in completed)
        if slowdown is not None
    ]
    return {
        "trace_jobs": len(trace_jobs),
        "trace_completed": len(completed),
        "trace_mean_wait_s": mean(waits),
        "trace_mean_slowdown": mean(slowdowns),
    }


def _node_state_counts(env: Environment) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for partition in env.cluster.partitions.values():
        for node in partition.nodes:
            counts[node.state.value] = counts.get(node.state.value, 0) + 1
    return dict(sorted(counts.items()))
