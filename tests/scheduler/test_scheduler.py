"""End-to-end tests for the batch scheduler."""

import pytest

from repro.cluster.builders import build_hpcqc_cluster
from repro.errors import JobRejectedError
from repro.quantum.circuit import Circuit
from repro.quantum.qpu import QPU
from repro.quantum.technology import SUPERCONDUCTING
from repro.scheduler.backfill import FIFOPolicy
from repro.scheduler.job import JobComponent, JobSpec, JobState
from repro.scheduler.scheduler import BatchScheduler
from repro.sim.events import Interrupt
from repro.sim.kernel import Kernel


@pytest.fixture
def env(kernel):
    qpu = QPU(kernel, SUPERCONDUCTING)
    cluster = build_hpcqc_cluster(kernel, 4, [qpu])
    scheduler = BatchScheduler(kernel, cluster)
    return kernel, cluster, scheduler, qpu


def rigid(name, nodes, walltime, duration, **kwargs):
    return JobSpec(
        name=name,
        components=[JobComponent("classical", nodes, walltime)],
        duration=duration,
        **kwargs,
    )


class TestLifecycle:
    def test_job_runs_and_completes(self, env):
        kernel, cluster, scheduler, _ = env
        job = scheduler.submit(rigid("a", 2, 100.0, 50.0))
        kernel.run(until=200.0)
        assert job.state == JobState.COMPLETED
        assert job.start_time == 0.0
        assert job.end_time == 50.0
        assert not scheduler.pending and not scheduler.running

    def test_fifo_wait_for_resources(self, env):
        kernel, _, scheduler, _ = env
        first = scheduler.submit(rigid("a", 3, 100.0, 50.0))
        second = scheduler.submit(rigid("b", 3, 100.0, 50.0))
        kernel.run(until=200.0)
        assert first.start_time == 0.0
        assert second.start_time == 50.0

    def test_started_event_fires(self, env):
        kernel, _, scheduler, _ = env
        job = scheduler.submit(rigid("a", 1, 100.0, 10.0))
        started_at = []
        job.started.callbacks.append(
            lambda ev: started_at.append(kernel.now)
        )
        kernel.run(until=50.0)
        assert started_at == [0.0]

    def test_finished_event_carries_state(self, env):
        kernel, _, scheduler, _ = env
        job = scheduler.submit(rigid("a", 1, 100.0, 10.0))
        kernel.run(until=50.0)
        assert job.finished.value == JobState.COMPLETED

    def test_wait_times_recorded(self, env):
        kernel, _, scheduler, _ = env
        scheduler.submit(rigid("a", 4, 100.0, 30.0))
        scheduler.submit(rigid("b", 4, 100.0, 10.0))
        kernel.run(until=200.0)
        assert scheduler.wait_times.samples == [0.0, 30.0]

    def test_completion_listener(self, env):
        kernel, _, scheduler, _ = env
        seen = []
        scheduler.completion_listeners.append(
            lambda job: seen.append(job.spec.name)
        )
        scheduler.submit(rigid("a", 1, 100.0, 5.0))
        kernel.run(until=50.0)
        assert seen == ["a"]


class TestValidation:
    def test_too_many_nodes_rejected(self, env):
        _, _, scheduler, _ = env
        with pytest.raises(JobRejectedError):
            scheduler.submit(rigid("big", 99, 100.0, 10.0))

    def test_excess_gres_rejected(self, env):
        _, _, scheduler, _ = env
        spec = JobSpec(
            name="greedy",
            components=[
                JobComponent("quantum", 1, 100.0, gres={"qpu": 5})
            ],
            duration=10.0,
        )
        with pytest.raises(JobRejectedError):
            scheduler.submit(spec)

    def test_partition_walltime_enforced(self, kernel):
        cluster = build_hpcqc_cluster(
            kernel, 2, ["d"], classical_max_walltime=100.0
        )
        scheduler = BatchScheduler(kernel, cluster)
        with pytest.raises(JobRejectedError):
            scheduler.submit(rigid("long", 1, 1000.0, 10.0))


class TestWalltimeEnforcement:
    def test_overrunning_job_killed(self, env):
        kernel, cluster, scheduler, _ = env
        job = scheduler.submit(rigid("over", 2, 20.0, 100.0))
        kernel.run(until=200.0)
        assert job.state == JobState.TIMEOUT
        assert job.end_time == 20.0
        assert cluster.partition("classical").available_count() == 4

    def test_hetjob_killed_at_minimum_component_walltime(self, env):
        kernel, _, scheduler, _ = env
        spec = JobSpec(
            name="het",
            components=[
                JobComponent("classical", 1, 100.0),
                JobComponent("quantum", 1, 30.0, gres={"qpu": 1}),
            ],
            duration=1000.0,
        )
        job = scheduler.submit(spec)
        kernel.run(until=200.0)
        assert job.state == JobState.TIMEOUT
        assert job.end_time == 30.0

    def test_work_function_sees_interrupt(self, env):
        kernel, _, scheduler, _ = env
        cleanups = []

        def work(ctx):
            try:
                yield ctx.timeout(1000.0)
            except Interrupt as interrupt:
                cleanups.append(interrupt.cause)

        spec = JobSpec(
            name="interruptible",
            components=[JobComponent("classical", 1, 10.0)],
            work=work,
        )
        scheduler.submit(spec)
        kernel.run(until=50.0)
        assert cleanups == ["walltime"]


class TestCancel:
    def test_cancel_pending(self, env):
        kernel, _, scheduler, _ = env
        blocker = scheduler.submit(rigid("blocker", 4, 100.0, 50.0))
        queued = scheduler.submit(rigid("queued", 4, 100.0, 10.0))
        kernel.run(until=1.0)
        scheduler.cancel(queued)
        kernel.run(until=200.0)
        assert queued.state == JobState.CANCELLED
        assert blocker.state == JobState.COMPLETED

    def test_cancel_running_releases_resources(self, env):
        kernel, cluster, scheduler, _ = env
        job = scheduler.submit(rigid("victim", 4, 100.0, 50.0))
        kernel.run(until=10.0)
        scheduler.cancel(job)
        kernel.run(until=20.0)
        assert job.state == JobState.CANCELLED
        assert cluster.partition("classical").available_count() == 4

    def test_cancel_terminal_is_noop(self, env):
        kernel, _, scheduler, _ = env
        job = scheduler.submit(rigid("done", 1, 100.0, 5.0))
        kernel.run(until=50.0)
        scheduler.cancel(job)
        assert job.state == JobState.COMPLETED


class TestHetjobGres:
    def test_work_sees_bound_device(self, env):
        kernel, _, scheduler, qpu = env
        seen = []

        def work(ctx):
            seen.append(ctx.first_qpu())
            result = yield ctx.first_qpu().run(Circuit(5, 10), 100)
            seen.append(result.shots)

        spec = JobSpec(
            name="hybrid",
            components=[
                JobComponent("classical", 2, 100.0),
                JobComponent("quantum", 1, 100.0, gres={"qpu": 1}),
            ],
            work=work,
        )
        job = scheduler.submit(spec)
        kernel.run(until=500.0)
        assert job.state == JobState.COMPLETED
        assert seen[0] is qpu
        assert seen[1] == 100

    def test_atomic_allocation_of_components(self, env):
        """A hetjob must not hold one component while waiting for the
        other."""
        kernel, cluster, scheduler, _ = env
        # Occupy the QPU side.
        holder = scheduler.submit(
            JobSpec(
                name="qpu-holder",
                components=[
                    JobComponent("quantum", 1, 100.0, gres={"qpu": 1})
                ],
                duration=60.0,
            )
        )
        hetjob = scheduler.submit(
            JobSpec(
                name="het",
                components=[
                    JobComponent("classical", 2, 100.0),
                    JobComponent("quantum", 1, 100.0, gres={"qpu": 1}),
                ],
                duration=10.0,
            )
        )
        kernel.run(until=30.0)
        # While blocked on the quantum side, no classical nodes held.
        assert hetjob.state == JobState.PENDING
        assert cluster.partition("classical").available_count() == 4
        kernel.run(until=200.0)
        assert hetjob.state == JobState.COMPLETED
        assert hetjob.start_time == 60.0
        del holder


class TestFailedWork:
    def test_work_exception_fails_job(self, env):
        kernel, cluster, scheduler, _ = env

        def work(ctx):
            yield ctx.timeout(5.0)
            raise ValueError("bug in application")

        spec = JobSpec(
            name="buggy",
            components=[JobComponent("classical", 1, 100.0)],
            work=work,
        )
        job = scheduler.submit(spec)
        kernel.run(until=50.0)
        assert job.state == JobState.FAILED
        assert cluster.partition("classical").available_count() == 4


class TestNodeFailureHandling:
    def test_evicted_job_marked_node_fail(self, env):
        kernel, cluster, scheduler, _ = env
        job = scheduler.submit(rigid("victim", 2, 100.0, 50.0))
        kernel.run(until=10.0)
        node = job.allocations[0].nodes[0]
        evicted = node.mark_down()
        scheduler.on_node_failure(node, evicted)
        kernel.run(until=20.0)
        assert job.state == JobState.NODE_FAIL
        # The non-failed node returns to the pool.
        assert cluster.partition("classical").available_count() == 3

    def test_requeue_on_failure(self, env):
        kernel, _, scheduler, _ = env
        job = scheduler.submit(
            rigid("retry", 1, 100.0, 50.0, requeue_on_failure=True)
        )
        kernel.run(until=10.0)
        node = job.allocations[0].nodes[0]
        evicted = node.mark_down()
        scheduler.on_node_failure(node, evicted)
        node.mark_up()
        kernel.run(until=500.0)
        clones = [
            j
            for j in scheduler.finished_jobs
            if j.spec.name == "retry" and j is not job
        ]
        assert len(clones) == 1
        assert clones[0].state == JobState.COMPLETED
        assert clones[0].requeue_count == 1


class TestSchedulingCycle:
    def test_cycle_delays_start(self, kernel):
        cluster = build_hpcqc_cluster(kernel, 2, ["d"])
        scheduler = BatchScheduler(kernel, cluster, cycle_time=30.0)
        job = scheduler.submit(
            JobSpec(
                name="j",
                components=[JobComponent("classical", 1, 100.0)],
                duration=10.0,
            )
        )
        kernel.run(until=100.0)
        assert job.start_time == 30.0

    def test_kicks_within_cycle_are_batched(self, kernel):
        cluster = build_hpcqc_cluster(kernel, 2, ["d"])
        scheduler = BatchScheduler(kernel, cluster, cycle_time=30.0)

        def submit_second(k):
            yield k.timeout(10.0)
            scheduler.submit(
                JobSpec(
                    name="late",
                    components=[JobComponent("classical", 1, 100.0)],
                    duration=10.0,
                )
            )

        scheduler.submit(
            JobSpec(
                name="early",
                components=[JobComponent("classical", 1, 100.0)],
                duration=10.0,
            )
        )
        kernel.process(submit_second(kernel))
        kernel.run(until=100.0)
        starts = sorted(
            job.start_time for job in scheduler.finished_jobs
        )
        assert starts == [30.0, 30.0]

    def test_submit_and_wait_helper(self, kernel):
        cluster = build_hpcqc_cluster(kernel, 2, ["d"])
        scheduler = BatchScheduler(kernel, cluster)

        def client(k):
            job = yield from scheduler.submit_and_wait(
                JobSpec(
                    name="j",
                    components=[JobComponent("classical", 1, 100.0)],
                    duration=25.0,
                )
            )
            return (job.state, k.now)

        process = kernel.process(client(kernel))
        kernel.run()
        assert process.value == (JobState.COMPLETED, 25.0)


class TestPolicyIntegration:
    def test_fifo_policy_no_backfill(self, kernel):
        cluster = build_hpcqc_cluster(kernel, 4, ["d"])
        scheduler = BatchScheduler(kernel, cluster, policy=FIFOPolicy())
        a = scheduler.submit(rigid("a", 3, 100.0, 50.0))
        b = scheduler.submit(rigid("b", 3, 100.0, 50.0))
        c = scheduler.submit(rigid("c", 1, 10.0, 5.0))
        kernel.run(until=500.0)
        # FIFO: c waits for b to start even though a node is free.
        assert c.start_time == b.start_time
        del a

    def test_easy_policy_backfills(self, kernel):
        cluster = build_hpcqc_cluster(kernel, 4, ["d"])
        scheduler = BatchScheduler(kernel, cluster)
        scheduler.submit(rigid("a", 3, 100.0, 50.0))
        scheduler.submit(rigid("b", 3, 100.0, 50.0))
        c = scheduler.submit(rigid("c", 1, 10.0, 5.0))
        kernel.run(until=500.0)
        assert c.start_time == 0.0
