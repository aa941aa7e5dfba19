"""E7 — Section 3 "Access and allocation model".

Current machines sit behind vendor REST endpoints with internal queues
and polling clients; HPC resources sit behind a batch scheduler.  This
experiment measures the per-kernel *access overhead* (client-observed
time minus device execution time) of the two models for a population of
users submitting short superconducting kernels:

- *cloud*: network latency + vendor FIFO queue + status polling;
- *batch gres*: each kernel wrapped in a batch job requesting
  ``--gres=qpu:1`` through the scheduler (with a production scheduling
  cycle).

Both models leave the seconds-scale kernel dwarfed by access machinery
once the user population grows — the gap the paper's proposals target.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.experiments.harness import (
    ExperimentResult,
    attach_sweep_failures,
)
from repro.experiments.sweep import (
    SweepSpec,
    run_cached_sweep,
)
from repro.metrics.stats import mean
from repro.quantum.circuit import Circuit
from repro.quantum.cloud import CloudQPUEndpoint
from repro.quantum.qpu import QPU
from repro.quantum.technology import SUPERCONDUCTING
from repro.scenarios import (
    FleetSpec,
    PolicySpec,
    ScenarioSpec,
    TopologySpec,
    build,
)
from repro.scheduler.job import JobComponent, JobSpec
from repro.sim.kernel import Kernel
from repro.sim.monitor import SampleSeries
from repro.sim.rng import RandomStreams


def batch_access_scenario(
    scheduling_cycle: float, seed: int = 0
) -> ScenarioSpec:
    """The batch-gres access facility: tiny partition, production cycle."""
    return ScenarioSpec(
        name="access-batch",
        description=(
            "Section 3's batch access model: users wrap each kernel "
            "in a --gres=qpu:1 job behind a production scheduling "
            "cycle."
        ),
        topology=TopologySpec(classical_nodes=4),
        fleet=FleetSpec(technology="superconducting"),
        policy=PolicySpec(scheduling_cycle=scheduling_cycle),
        seed=seed,
    )


def _cloud_scenario(
    users: int, kernels_per_user: int, think_time: float, seed: int
) -> SampleSeries:
    """Users submitting via the vendor cloud endpoint."""
    kernel = Kernel()
    streams = RandomStreams(seed)
    qpu = QPU(kernel, SUPERCONDUCTING)
    endpoint = CloudQPUEndpoint(
        kernel,
        qpu,
        submission_latency=0.25,
        polling_interval=2.0,
        streams=streams,
    )
    overheads = SampleSeries("cloud-overheads")
    circuit = Circuit(10, 100, name="access-kernel")

    def user(index: int):
        rng = streams.stream(f"user{index}")
        for _ in range(kernels_per_user):
            result = yield from endpoint.execute(
                circuit, 1000, submitter=f"user{index}"
            )
            overheads.record(result.total_time - result.execution_time)
            yield kernel.timeout(float(rng.exponential(think_time)))

    for index in range(users):
        kernel.process(user(index), name=f"cloud-user{index}")
    kernel.run()
    return overheads


def _batch_scenario(
    users: int,
    kernels_per_user: int,
    think_time: float,
    seed: int,
    scheduling_cycle: float,
) -> SampleSeries:
    """Users wrapping each kernel in a batch job with a qpu gres."""
    env = build(batch_access_scenario(scheduling_cycle, seed=seed))
    overheads = SampleSeries("batch-overheads")
    circuit = Circuit(10, 100, name="access-kernel")
    technology = SUPERCONDUCTING
    expected_exec = technology.execution_time(circuit, 1000)
    walltime = expected_exec * 2 + technology.calibration_duration + 60.0

    def kernel_job_spec(index: int, sequence: int) -> JobSpec:
        def work(ctx):
            yield ctx.first_qpu().run(
                circuit, 1000, submitter=f"user{index}"
            )

        return JobSpec(
            name=f"qjob-u{index}-{sequence}",
            components=[
                JobComponent("quantum", 1, walltime, gres={"qpu": 1})
            ],
            user=f"user{index}",
            work=work,
        )

    def user(index: int):
        rng = env.streams.stream(f"user{index}")
        for sequence in range(kernels_per_user):
            submit_time = env.kernel.now
            job = yield from env.scheduler.submit_and_wait(
                kernel_job_spec(index, sequence)
            )
            elapsed = env.kernel.now - submit_time
            overheads.record(elapsed - expected_exec)
            del job
            yield env.kernel.timeout(float(rng.exponential(think_time)))

    for index in range(users):
        env.kernel.process(user(index), name=f"batch-user{index}")
    env.kernel.run()
    return overheads


def _run_point(params: Dict[str, Any], seed: int) -> Dict[str, float]:
    """One (model, user-count) cell; summary stats of the overheads."""
    if params["model"] == "cloud":
        overheads = _cloud_scenario(
            params["users"],
            params["kernels_per_user"],
            params["think_time"],
            seed,
        )
    else:
        overheads = _batch_scenario(
            params["users"],
            params["kernels_per_user"],
            params["think_time"],
            seed,
            params["scheduling_cycle"],
        )
    return {
        "mean": overheads.mean,
        "p95": overheads.percentile(95),
        "minimum": overheads.minimum,
    }


def sweep_spec(
    seed: int = 0,
    kernels_per_user: int = 8,
    think_time: float = 30.0,
    scheduling_cycle: float = 30.0,
    user_counts: tuple = (1, 4, 16),
) -> SweepSpec:
    return SweepSpec(
        experiment_id="E7",
        axes={
            "users": list(user_counts),
            "model": ["cloud", "batch"],
        },
        constants={
            "kernels_per_user": kernels_per_user,
            "think_time": think_time,
            "scheduling_cycle": scheduling_cycle,
        },
        base_seed=seed,
        seed_mode="shared",
    )


def run(
    seed: int = 0,
    kernels_per_user: int = 8,
    think_time: float = 30.0,
    scheduling_cycle: float = 30.0,
    user_counts: tuple = (1, 4, 16),
    **sweep_options: Any,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E7",
        title="Access models: vendor cloud vs batch gres (Section 3)",
        description=(
            "Per-kernel access overhead (client time minus device "
            "execution) for users running seconds-scale kernels through "
            "the vendor cloud path (latency + queue + polling) and "
            "through batch jobs with a qpu gres (scheduler cycle + "
            "queue)."
        ),
        parameters={
            "kernels_per_user": kernels_per_user,
            "think_time_s": think_time,
            "scheduling_cycle_s": scheduling_cycle,
            "seed": seed,
        },
    )
    sweep_result = run_cached_sweep(
        sweep_spec(
            seed=seed,
            kernels_per_user=kernels_per_user,
            think_time=think_time,
            scheduling_cycle=scheduling_cycle,
            user_counts=user_counts,
        ),
        _run_point,
        **sweep_options,
    )
    if attach_sweep_failures(result, sweep_result):
        return result
    rows = []
    cloud_by_users: Dict[int, Dict[str, float]] = {}
    batch_by_users: Dict[int, Dict[str, float]] = {}
    for point, metrics in zip(sweep_result.points, sweep_result.values):
        users = point.params["users"]
        if point.params["model"] == "cloud":
            cloud_by_users[users] = metrics
            continue
        # Point order is users-major, cloud before batch: the pair is
        # complete when the batch half arrives.
        batch_by_users[users] = metrics
        cloud = cloud_by_users[users]
        rows.append(
            [
                users,
                round(cloud["mean"], 2),
                round(cloud["p95"], 2),
                round(metrics["mean"], 2),
                round(metrics["p95"], 2),
            ]
        )
    result.add_table(
        "Per-kernel access overhead (seconds; kernel exec ~3 s)",
        [
            "users",
            "cloud mean",
            "cloud p95",
            "batch mean",
            "batch p95",
        ],
        rows,
    )

    single_cloud = cloud_by_users[min(user_counts)]
    result.check(
        "the cloud path costs at least a polling quantum even for a "
        "single idle user",
        single_cloud["minimum"] >= 0.5,
        detail=f"min overhead {single_cloud['minimum']:.2f}s",
    )
    many = max(user_counts)
    result.check(
        "cloud overhead grows with the user population (vendor-queue "
        "contention)",
        cloud_by_users[many]["mean"] > single_cloud["mean"] * 2,
        detail=(
            f"{single_cloud['mean']:.2f}s (1 user) -> "
            f"{cloud_by_users[many]['mean']:.2f}s ({many} users)"
        ),
    )
    result.check(
        "the batch path pays the scheduling cycle per kernel: the "
        "unloaded mean overhead is about half a cycle (submissions land "
        "uniformly within the running cycle)",
        batch_by_users[min(user_counts)]["mean"] >= scheduling_cycle * 0.4,
        detail=(
            f"mean overhead "
            f"{batch_by_users[min(user_counts)]['mean']:.1f}s vs cycle "
            f"{scheduling_cycle:.0f}s"
        ),
    )
    result.check(
        "in both models the seconds-scale kernel is dwarfed by access "
        "overhead at high tenancy (overhead > 3x execution)",
        batch_by_users[many]["mean"] > 9.0
        and cloud_by_users[many]["mean"] > 9.0,
        detail=(
            f"batch {batch_by_users[many]['mean']:.1f}s, "
            f"cloud {cloud_by_users[many]['mean']:.1f}s vs ~3 s exec"
        ),
    )
    return result
