"""Property/fuzz tests on the scheduler's global invariants.

Whatever the workload and policy:

- allocated nodes never exceed partition capacity at any instant;
- every submitted job reaches a terminal state (no lost jobs);
- no job runs past its walltime limit;
- node/gres accounting returns to zero once the system drains.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.builders import build_hpcqc_cluster
from repro.cluster.failures import FailureInjector
from repro.scheduler.backfill import make_policy
from repro.scheduler.job import JobComponent, JobSpec, JobState
from repro.scheduler.scheduler import BatchScheduler
from repro.sim.kernel import Kernel
from repro.sim.rng import RandomStreams

job_params = st.tuples(
    st.integers(min_value=1, max_value=8),  # nodes
    st.floats(min_value=1.0, max_value=200.0),  # duration
    st.floats(min_value=0.0, max_value=300.0),  # submit delay
    st.booleans(),  # wants the qpu gres
)


@given(
    jobs=st.lists(job_params, min_size=1, max_size=25),
    policy_name=st.sampled_from(["fifo", "easy", "conservative"]),
)
@settings(max_examples=25, deadline=None)
def test_capacity_never_exceeded_and_all_jobs_drain(jobs, policy_name):
    kernel = Kernel()
    cluster = build_hpcqc_cluster(kernel, 8, ["dev0"])
    scheduler = BatchScheduler(
        kernel, cluster, policy=make_policy(policy_name)
    )
    classical = cluster.partition("classical")
    quantum = cluster.partition("quantum")
    violations = []

    def monitor():
        while True:
            busy = sum(
                1 for node in classical.nodes if not node.is_available
            )
            if busy > classical.node_count:
                violations.append(("classical", kernel.now, busy))
            qpu_busy = quantum.gres_capacity("qpu") - sum(
                len(n.free_gres("qpu")) for n in quantum.nodes
            )
            if qpu_busy > quantum.gres_capacity("qpu"):
                violations.append(("qpu", kernel.now, qpu_busy))
            yield kernel.timeout(7.0)

    submitted = []

    def submitter(delay, spec):
        yield kernel.timeout(delay)
        submitted.append(scheduler.submit(spec))

    for index, (nodes, duration, delay, wants_qpu) in enumerate(jobs):
        walltime = duration * 1.5 + 10.0
        components = [JobComponent("classical", nodes, walltime)]
        if wants_qpu:
            components.append(
                JobComponent("quantum", 1, walltime, gres={"qpu": 1})
            )
        spec = JobSpec(
            name=f"fuzz-{index}",
            components=components,
            duration=duration,
        )
        kernel.process(submitter(delay, spec))
    kernel.process(monitor(), name="capacity-monitor")
    kernel.run(until=50000.0)

    assert not violations
    assert len(submitted) == len(jobs)
    for job in submitted:
        assert job.state == JobState.COMPLETED, job
        assert job.run_time is not None
        assert job.run_time <= job.spec.walltime_limit + 1e-6
    # Fully drained: everything is free again.
    assert classical.available_count() == classical.node_count
    assert sum(
        len(n.free_gres("qpu")) for n in quantum.available_nodes()
    ) == 1


@given(seed=st.integers(min_value=0, max_value=50))
@settings(max_examples=10, deadline=None)
def test_failures_with_requeue_eventually_drain(seed):
    """Under random node failures, requeue-enabled jobs still finish."""
    kernel = Kernel()
    cluster = build_hpcqc_cluster(kernel, 6, ["dev0"])
    scheduler = BatchScheduler(kernel, cluster)
    FailureInjector(
        kernel,
        cluster.partition("classical").nodes,
        mtbf=3000.0,
        mean_repair_time=60.0,
        streams=RandomStreams(seed),
        on_failure=scheduler.on_node_failure,
    )
    jobs = [
        scheduler.submit(
            JobSpec(
                name=f"retry-{index}",
                components=[JobComponent("classical", 2, 500.0)],
                duration=100.0,
                requeue_on_failure=True,
            )
        )
        for index in range(5)
    ]
    kernel.run(until=100000.0)
    # Every original submission reached a terminal state...
    assert all(job.state.is_terminal for job in jobs)
    # ...and for each NODE_FAIL there is a completed requeue clone
    # somewhere down the chain.
    completed = [
        j
        for j in scheduler.finished_jobs
        if j.state == JobState.COMPLETED
    ]
    names_completed = {j.spec.name for j in completed}
    assert names_completed >= {f"retry-{i}" for i in range(5)}
