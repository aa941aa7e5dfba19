"""Tests for the scheduler's shrink/grow (malleability) API."""

import pytest

from repro.cluster.builders import build_hpcqc_cluster
from repro.errors import MalleabilityError
from repro.scheduler.job import JobComponent, JobSpec, JobState
from repro.scheduler.scheduler import BatchScheduler


@pytest.fixture
def env(kernel):
    cluster = build_hpcqc_cluster(kernel, 8, ["d0"])
    scheduler = BatchScheduler(kernel, cluster)
    return kernel, cluster, scheduler


def malleable_spec(work, nodes=6, walltime=1000.0):
    return JobSpec(
        name="malleable",
        components=[JobComponent("classical", nodes, walltime)],
        work=work,
    )


class TestShrink:
    def test_shrink_releases_nodes_mid_run(self, env):
        kernel, cluster, scheduler = env
        observed = []

        def work(ctx):
            yield ctx.timeout(10.0)
            released = ctx.shrink("classical", 4)
            observed.append(len(released))
            observed.append(
                cluster.partition("classical").available_count()
            )
            yield ctx.timeout(10.0)

        job = scheduler.submit(malleable_spec(work))
        kernel.run(until=100.0)
        assert observed == [4, 6]  # 2 free initially + 4 released
        assert job.state == JobState.COMPLETED

    def test_shrink_to_zero_rejected(self, env):
        kernel, _, scheduler = env
        errors = []

        def work(ctx):
            yield ctx.timeout(1.0)
            try:
                ctx.shrink("classical", 6)
            except MalleabilityError as error:
                errors.append(str(error))

        scheduler.submit(malleable_spec(work))
        kernel.run(until=100.0)
        assert errors and "no node" in errors[0]

    def test_shrink_frees_nodes_for_queued_jobs(self, env):
        kernel, _, scheduler = env

        def work(ctx):
            yield ctx.timeout(10.0)
            ctx.shrink("classical", 4)
            yield ctx.timeout(50.0)

        scheduler.submit(malleable_spec(work, nodes=8))
        waiting = scheduler.submit(
            JobSpec(
                name="waiting",
                components=[JobComponent("classical", 4, 100.0)],
                duration=5.0,
            )
        )
        kernel.run(until=200.0)
        assert waiting.start_time == 10.0


class TestGrow:
    def test_grow_granted_when_free(self, env):
        kernel, _, scheduler = env
        sizes = []

        def work(ctx):
            yield ctx.timeout(1.0)
            ctx.shrink("classical", 4)
            sizes.append(ctx.nodes_in("classical"))
            names = yield ctx.grow("classical", 4)
            sizes.append(ctx.nodes_in("classical"))
            sizes.append(len(names))

        job = scheduler.submit(malleable_spec(work))
        kernel.run(until=100.0)
        assert sizes == [2, 6, 4]
        assert job.state == JobState.COMPLETED

    def test_grow_waits_for_capacity(self, env):
        kernel, _, scheduler = env
        grow_times = []

        def work(ctx):
            yield ctx.timeout(1.0)
            ctx.shrink("classical", 4)
            yield ctx.timeout(1.0)
            requested = ctx.now
            yield ctx.grow("classical", 4)
            grow_times.append(ctx.now - requested)
            yield ctx.timeout(1.0)

        scheduler.submit(malleable_spec(work, nodes=6))

        def occupy_then_release(k):
            # Take the freed nodes for a while.
            yield k.timeout(1.5)
            job = scheduler.submit(
                JobSpec(
                    name="occupier",
                    components=[JobComponent("classical", 6, 100.0)],
                    duration=30.0,
                )
            )
            yield job.finished

        kernel.process(occupy_then_release(kernel))
        kernel.run(until=300.0)
        assert grow_times and grow_times[0] > 0.0

    def test_grow_has_priority_over_new_jobs(self, env):
        """A pending grow and a pending job compete for nodes freeing at
        the same instant: the grow must win the scheduling pass."""
        kernel, _, scheduler = env
        grow_granted_at = []

        def work(ctx):
            yield ctx.timeout(10.0)
            ctx.shrink("classical", 4)       # malleable now holds 4
            yield ctx.timeout(10.0)          # blocker grabbed the 4
            yield ctx.grow("classical", 4)   # pends until blocker ends
            grow_granted_at.append(ctx.now)
            yield ctx.timeout(30.0)

        malleable = scheduler.submit(malleable_spec(work, nodes=8))

        def submit_blocker_and_competitor(k):
            yield k.timeout(10.0)
            scheduler.submit(
                JobSpec(
                    name="blocker",
                    components=[JobComponent("classical", 4, 100.0)],
                    duration=50.0,
                )
            )
            yield k.timeout(20.0)
            scheduler.submit(
                JobSpec(
                    name="competitor",
                    components=[JobComponent("classical", 4, 100.0)],
                    duration=5.0,
                )
            )

        kernel.process(submit_blocker_and_competitor(kernel))
        kernel.run(until=500.0)
        competitor = next(
            j
            for j in scheduler.finished_jobs
            if j.spec.name == "competitor"
        )
        # Blocker ends at t=60; the grow is served in that pass, the
        # competitor only after the malleable job finishes (t=90).
        assert grow_granted_at == [60.0]
        assert competitor.start_time >= 90.0
        assert malleable.state == JobState.COMPLETED

    def test_grow_zero_rejected(self, env):
        kernel, _, scheduler = env
        errors = []

        def work(ctx):
            yield ctx.timeout(1.0)
            try:
                ctx.grow("classical", 0)
            except MalleabilityError:
                errors.append(True)

        scheduler.submit(malleable_spec(work))
        kernel.run(until=50.0)
        assert errors == [True]

    def test_pending_grow_fails_when_job_ends(self, env):
        kernel, _, scheduler = env

        def work(ctx):
            yield ctx.timeout(1.0)
            ctx.shrink("classical", 4)
            # Request an impossible grow and exit without waiting.
            event = ctx.grow("classical", 6)
            event.defuse()
            yield ctx.timeout(1.0)

        job = scheduler.submit(malleable_spec(work))
        # Fill the cluster so the grow can never be granted.
        blocker = scheduler.submit(
            JobSpec(
                name="blocker",
                components=[JobComponent("classical", 2, 1000.0)],
                duration=500.0,
            )
        )
        kernel.run(until=600.0)
        assert job.state == JobState.COMPLETED
        assert not scheduler.grow_requests
        del blocker

    def test_shrink_on_pending_job_rejected(self, env):
        kernel, _, scheduler = env
        job = scheduler.submit(malleable_spec(lambda ctx: iter(())))
        with pytest.raises(MalleabilityError):
            scheduler.shrink_job(job, "classical", 1)


class TestAttach:
    def test_attach_has_priority_over_new_jobs(self, env):
        """A pending attach and a pending job want the one QPU node
        freeing at the same instant: the attach must win the pass."""
        kernel, _, scheduler = env
        attached_at = []
        qpu = JobComponent("quantum", 1, 100.0, gres={"qpu": 1})

        def work(ctx):
            yield ctx.timeout(10.0)
            yield ctx.attach_component(qpu)  # pends until blocker ends
            attached_at.append(ctx.now)
            yield ctx.timeout(20.0)
            ctx.detach_component("quantum")
            yield ctx.timeout(5.0)

        elastic = scheduler.submit(malleable_spec(work, nodes=2))
        scheduler.submit(
            JobSpec(name="blocker", components=[qpu], duration=50.0)
        )

        def submit_competitor(k):
            yield k.timeout(20.0)
            scheduler.submit(
                JobSpec(name="competitor", components=[qpu], duration=5.0)
            )

        kernel.process(submit_competitor(kernel))
        kernel.run(until=500.0)
        competitor = next(
            j for j in scheduler.finished_jobs if j.spec.name == "competitor"
        )
        # Blocker ends at t=50; the attach is served in that pass and
        # the competitor waits until the detach at t=70.
        assert attached_at == [50.0]
        assert competitor.start_time == 70.0
        assert elastic.state == JobState.COMPLETED

    def test_attach_on_pending_job_rejected(self, env):
        kernel, _, scheduler = env
        job = scheduler.submit(malleable_spec(lambda ctx: iter(())))
        with pytest.raises(MalleabilityError):
            scheduler.request_component(
                job, JobComponent("quantum", 1, 10.0, gres={"qpu": 1})
            )

    def test_pending_attach_fails_when_job_ends(self, env):
        kernel, _, scheduler = env
        failures = []
        qpu = JobComponent("quantum", 1, 100.0, gres={"qpu": 1})

        def work(ctx):
            yield ctx.timeout(1.0)
            event = ctx.attach_component(qpu)
            event.callbacks.append(
                lambda ev: failures.append(type(ev.value).__name__)
            )
            event.defuse()
            yield ctx.timeout(1.0)

        scheduler.submit(
            JobSpec(name="blocker", components=[qpu], duration=500.0)
        )
        job = scheduler.submit(malleable_spec(work, nodes=2))
        kernel.run(until=600.0)
        assert job.state == JobState.COMPLETED
        assert failures == ["MalleabilityError"]
        assert not scheduler.component_requests
