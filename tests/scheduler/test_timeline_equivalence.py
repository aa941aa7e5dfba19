"""Equivalence suite: compiled/incremental timelines vs the naive seed.

The availability-timeline layer was rewritten around compiled profiles,
copy-on-write forks and an incremental cross-pass cache.  These tests
pin the rewrite to the original semantics:

- ``NaivePartitionTimeline``/``NaiveClusterTimeline`` are a literal
  port of the pre-rewrite implementation (single accumulation pass for
  ``fits``, ``fits``-per-candidate ``earliest_start``) and serve as the
  executable specification;
- property tests drive both implementations with randomized occupation
  streams and queries and require identical answers for ``fits``,
  ``earliest_start`` and every policy's ``select`` output;
- full scheduler runs compare the incremental timeline cache against
  per-pass rebuilds, including the built-in debug cross-check.
"""

import bisect

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.builders import build_hpcqc_cluster
from repro.scheduler.backfill import (
    HORIZON,
    ClusterTimeline,
    PartitionTimeline,
    TimelineCache,
    make_policy,
    profiles_equal,
)
from repro.scheduler.job import Job, JobComponent, JobSpec, JobState
from repro.scheduler.scheduler import BatchScheduler
from repro.sim.kernel import Kernel

# -- naive reference (port of the seed implementation) -----------------------


class NaivePartitionTimeline:
    """Reference profile: sparse deltas + one accumulation pass."""

    def __init__(self, capacity_nodes, capacity_gres, now):
        self.now = now
        self._times = [now]
        self._node_deltas = [capacity_nodes]
        self._gres_deltas = [dict(capacity_gres)]

    def _add_delta(self, time, nodes, gres=None):
        time = max(time, self.now)
        index = bisect.bisect_left(self._times, time)
        if index < len(self._times) and self._times[index] == time:
            self._node_deltas[index] += nodes
            for gres_type, count in (gres or {}).items():
                self._gres_deltas[index][gres_type] = (
                    self._gres_deltas[index].get(gres_type, 0) + count
                )
        else:
            self._times.insert(index, time)
            self._node_deltas.insert(index, nodes)
            self._gres_deltas.insert(index, dict(gres or {}))

    def occupy(self, start, end, nodes, gres=None):
        if end <= start:
            return
        self._add_delta(start, -nodes, {t: -c for t, c in (gres or {}).items()})
        if end < HORIZON + self.now:
            self._add_delta(end, nodes, dict(gres or {}))

    def fits(self, start, duration, nodes, gres=None):
        """Single accumulation pass: track the minimum free capacity
        over the window [start, start+duration), including the value in
        force at ``start``."""
        end = start + duration
        free_nodes = 0
        free_gres = {}
        checked_start = False

        def deficit():
            if free_nodes < nodes:
                return True
            return any(
                free_gres.get(gres_type, 0) < needed
                for gres_type, needed in (gres or {}).items()
            )

        for index, time in enumerate(self._times):
            if time > start:
                if not checked_start:
                    # Value in force at ``start`` (state of the last
                    # breakpoint <= start).
                    checked_start = True
                    if deficit():
                        return False
                if time >= end:
                    break
            free_nodes += self._node_deltas[index]
            for gres_type, count in self._gres_deltas[index].items():
                free_gres[gres_type] = free_gres.get(gres_type, 0) + count
            if start <= time < end and deficit():
                return False
        if not checked_start and deficit():
            return False
        return True


class NaiveClusterTimeline:
    """Reference cluster timeline: ``fits`` per earliest-start candidate."""

    def __init__(self, cluster, now):
        self.now = now
        self.partitions = {}
        for name, partition in cluster.partitions.items():
            gres_capacity = {
                gres_type: partition.gres_capacity(gres_type)
                for gres_type in partition.gres_types()
            }
            self.partitions[name] = NaivePartitionTimeline(
                partition.usable_node_count(), gres_capacity, now
            )
        for allocation in cluster.active_allocations():
            timeline = self.partitions[allocation.partition_name]
            timeline.occupy(
                now,
                min(allocation.expected_end, now + HORIZON),
                allocation.node_count,
                allocation.gres_counts(),
            )

    def fits_at(self, components, start, duration):
        return all(
            self.partitions[component.partition].fits(
                start, duration, component.nodes, component.gres
            )
            for component in components
        )

    def earliest_start(self, components, duration):
        candidates = {self.now}
        for component in components:
            candidates.update(
                t
                for t in self.partitions[component.partition]._times
                if t >= self.now
            )
        for candidate in sorted(candidates):
            if candidate - self.now > HORIZON:
                break
            if self.fits_at(components, candidate, duration):
                return candidate
        return None

    def occupy(self, components, start, duration):
        for component in components:
            self.partitions[component.partition].occupy(
                start, start + duration, component.nodes, component.gres
            )


def naive_select(policy_name, pending, cluster, now):
    """The seed implementation of every policy's ``select``."""
    timeline = NaiveClusterTimeline(cluster, now)

    def starts_now(tl, job):
        return tl.fits_at(job.spec.components, now, job.spec.walltime_limit)

    started = []
    if policy_name == "fifo":
        for job in pending:
            if starts_now(timeline, job):
                timeline.occupy(job.spec.components, now,
                                job.spec.walltime_limit)
                started.append(job)
            else:
                break
    elif policy_name == "easy":
        head = None
        head_start = None
        for job in pending:
            duration = job.spec.walltime_limit
            if head is None:
                if starts_now(timeline, job):
                    timeline.occupy(job.spec.components, now, duration)
                    started.append(job)
                else:
                    head = job
                    head_start = timeline.earliest_start(
                        job.spec.components, duration
                    )
                continue
            if not starts_now(timeline, job):
                continue
            if head_start is None:
                timeline.occupy(job.spec.components, now, duration)
                started.append(job)
                continue
            trial = NaiveClusterTimeline(cluster, now)
            for other in started:
                trial.occupy(other.spec.components, now,
                             other.spec.walltime_limit)
            trial.occupy(job.spec.components, now, duration)
            new_head_start = trial.earliest_start(
                head.spec.components, head.spec.walltime_limit
            )
            if new_head_start is not None and new_head_start <= head_start:
                timeline.occupy(job.spec.components, now, duration)
                started.append(job)
    elif policy_name == "conservative":
        for job in pending:
            duration = job.spec.walltime_limit
            start = timeline.earliest_start(job.spec.components, duration)
            if start is None:
                continue
            timeline.occupy(job.spec.components, start, duration)
            if start <= now:
                started.append(job)
    else:  # pragma: no cover
        raise ValueError(policy_name)
    return started


# -- hypothesis strategies ----------------------------------------------------

occupations = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=500.0),  # start
        st.floats(min_value=1.0, max_value=400.0),  # length
        st.integers(min_value=1, max_value=6),  # nodes
        st.integers(min_value=0, max_value=2),  # gres units
    ),
    min_size=0,
    max_size=12,
)

queries = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=900.0),  # start
        st.floats(min_value=0.0, max_value=400.0),  # duration
        st.integers(min_value=0, max_value=10),  # nodes
        st.integers(min_value=0, max_value=3),  # gres units
    ),
    min_size=1,
    max_size=10,
)

job_params = st.tuples(
    st.integers(min_value=1, max_value=8),  # nodes
    st.floats(min_value=1.0, max_value=300.0),  # walltime
    st.booleans(),  # wants the qpu gres
)

running_params = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=3),  # nodes
        st.floats(min_value=10.0, max_value=400.0),  # walltime
    ),
    min_size=0,
    max_size=4,
)


def _paired_timelines(occupation_stream):
    compiled = PartitionTimeline(10, {"qpu": 3}, now=0.0)
    naive = NaivePartitionTimeline(10, {"qpu": 3}, now=0.0)
    for start, length, nodes, gres_units in occupation_stream:
        gres = {"qpu": gres_units} if gres_units else None
        compiled.occupy(start, start + length, nodes, gres)
        naive.occupy(start, start + length, nodes, gres)
    return compiled, naive


@given(occupation_stream=occupations, query_stream=queries)
@settings(max_examples=200, deadline=None)
def test_fits_matches_naive_reference(occupation_stream, query_stream):
    compiled, naive = _paired_timelines(occupation_stream)
    for start, duration, nodes, gres_units in query_stream:
        gres = {"qpu": gres_units} if gres_units else None
        assert compiled.fits(start, duration, nodes, gres) == naive.fits(
            start, duration, nodes, gres
        ), (occupation_stream, start, duration, nodes, gres)


@given(
    occupation_stream=occupations,
    jobs=st.lists(job_params, min_size=1, max_size=6),
)
@settings(max_examples=150, deadline=None)
def test_earliest_start_matches_naive_reference(occupation_stream, jobs):
    kernel = Kernel()
    cluster = build_hpcqc_cluster(kernel, 10, ["d0", "d1", "d2"])
    compiled = ClusterTimeline(cluster, now=0.0)
    naive = NaiveClusterTimeline(cluster, now=0.0)
    for start, length, nodes, gres_units in occupation_stream:
        components = [JobComponent("classical", nodes, 1.0)]
        if gres_units:
            components.append(
                JobComponent("quantum", 1, 1.0, gres={"qpu": gres_units})
            )
        # occupy takes (components, start, duration)
        compiled.occupy(components, start, length)
        naive.occupy(components, start, length)
    for nodes, walltime, wants_qpu in jobs:
        components = [JobComponent("classical", nodes, walltime)]
        if wants_qpu:
            components.append(
                JobComponent("quantum", 1, walltime, gres={"qpu": 1})
            )
        assert compiled.earliest_start(components, walltime) == (
            naive.earliest_start(components, walltime)
        )


@given(
    running=running_params,
    jobs=st.lists(job_params, min_size=1, max_size=10),
    policy_name=st.sampled_from(["fifo", "easy", "conservative"]),
)
@settings(max_examples=150, deadline=None)
def test_policy_select_matches_naive_reference(running, jobs, policy_name):
    kernel = Kernel()
    cluster = build_hpcqc_cluster(kernel, 8, ["d0"])
    for index, (nodes, walltime) in enumerate(running):
        if cluster.can_allocate("classical", nodes):
            cluster.allocate(f"run-{index}", "classical", nodes,
                             walltime=walltime)
    pending = []
    for index, (nodes, walltime, wants_qpu) in enumerate(jobs):
        components = [JobComponent("classical", nodes, walltime)]
        if wants_qpu:
            components.append(
                JobComponent("quantum", 1, walltime, gres={"qpu": 1})
            )
        job = Job(
            JobSpec(name=f"eq-{index}", components=components,
                    duration=walltime / 2),
            kernel,
        )
        job.submit_time = 0.0
        pending.append(job)
    policy = make_policy(policy_name)
    assert policy.select(pending, cluster, 0.0) == naive_select(
        policy_name, pending, cluster, 0.0
    )


# -- copy-on-write forks ------------------------------------------------------


class TestForkIsolation:
    def test_fork_mutation_does_not_leak_to_parent(self):
        parent = PartitionTimeline(10, {"qpu": 2}, now=0.0)
        parent.occupy(0.0, 50.0, 4, {"qpu": 1})
        fork = parent.fork()
        fork.occupy(0.0, 100.0, 6, {"qpu": 1})
        assert not fork.fits(0.0, 10.0, 1)
        assert parent.fits(0.0, 10.0, 6, {"qpu": 1})

    def test_parent_mutation_does_not_leak_to_fork(self):
        parent = PartitionTimeline(10, {}, now=0.0)
        fork = parent.fork()
        parent.occupy(0.0, 50.0, 10)
        assert not parent.fits(0.0, 10.0, 1)
        assert fork.fits(0.0, 10.0, 10)

    def test_speculate_discards_trial(self, kernel):
        cluster = build_hpcqc_cluster(kernel, 4, ["d0"])
        timeline = ClusterTimeline(cluster, now=0.0)
        components = [JobComponent("classical", 4, 100.0)]
        with timeline.speculate() as trial:
            trial.occupy(components, 0.0, 100.0)
            assert not trial.fits_at(components, 0.0, 100.0)
        assert timeline.fits_at(components, 0.0, 100.0)

    @given(occupation_stream=occupations, query_stream=queries)
    @settings(max_examples=50, deadline=None)
    def test_forked_profiles_stay_equal_until_written(
        self, occupation_stream, query_stream
    ):
        compiled, _ = _paired_timelines(occupation_stream)
        fork = compiled.fork()
        assert profiles_equal(compiled, fork)
        for start, duration, nodes, gres_units in query_stream:
            gres = {"qpu": gres_units} if gres_units else None
            assert compiled.fits(start, duration, nodes, gres) == fork.fits(
                start, duration, nodes, gres
            )


# -- advance_to re-anchoring --------------------------------------------------


@given(
    occupation_stream=occupations,
    new_now=st.floats(min_value=0.0, max_value=800.0),
    query_stream=queries,
)
@settings(max_examples=100, deadline=None)
def test_advance_to_matches_fresh_anchor(
    occupation_stream, new_now, query_stream
):
    """Advancing a timeline re-anchors it exactly like building fresh."""
    advanced, _ = _paired_timelines(occupation_stream)
    advanced.advance_to(new_now)
    anchor = max(new_now, 0.0)
    fresh = NaivePartitionTimeline(10, {"qpu": 3}, now=anchor)
    for start, length, nodes, gres_units in occupation_stream:
        end = start + length
        if end <= anchor:
            continue
        gres = {"qpu": gres_units} if gres_units else None
        fresh.occupy(max(start, anchor), end, nodes, gres)
    for start, duration, nodes, gres_units in query_stream:
        if start < anchor:
            continue
        gres = {"qpu": gres_units} if gres_units else None
        assert advanced.fits(start, duration, nodes, gres) == fresh.fits(
            start, duration, nodes, gres
        )


# -- incremental cache vs per-pass rebuild ------------------------------------


def _run_workload(incremental, debug, jobs, policy_name):
    kernel = Kernel()
    cluster = build_hpcqc_cluster(kernel, 8, ["d0"])
    scheduler = BatchScheduler(
        kernel,
        cluster,
        policy=make_policy(policy_name),
        incremental_timelines=incremental,
        timeline_debug=debug,
    )
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
            name=f"inc-{index}", components=components, duration=duration
        )
        kernel.process(submitter(delay, spec))
    kernel.run(until=100000.0)
    return [
        (job.spec.name, job.state, job.start_time, job.end_time)
        for job in submitted
    ]


workload_params = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=8),  # nodes
        st.floats(min_value=1.0, max_value=200.0),  # duration
        st.floats(min_value=0.0, max_value=300.0),  # submit delay
        st.booleans(),  # wants the qpu gres
    ),
    min_size=1,
    max_size=15,
)


@given(
    jobs=workload_params,
    policy_name=st.sampled_from(["fifo", "easy", "conservative"]),
)
@settings(max_examples=30, deadline=None)
def test_incremental_schedule_matches_rebuild(jobs, policy_name):
    """Full runs with/without the cache make identical decisions, and
    the debug cross-check (incremental vs rebuilt profile on every
    pass) never trips."""
    incremental = _run_workload(True, True, jobs, policy_name)
    rebuilt = _run_workload(False, False, jobs, policy_name)
    assert incremental == rebuilt
    assert all(state == JobState.COMPLETED for _, state, _, _ in incremental)


def test_cache_reuses_timeline_across_passes(kernel):
    cluster = build_hpcqc_cluster(kernel, 8, ["d0"])
    scheduler = BatchScheduler(kernel, cluster, timeline_debug=True)
    for index in range(12):
        scheduler.submit(
            JobSpec(
                name=f"reuse-{index}",
                components=[JobComponent("classical", 3, 500.0)],
                duration=100.0,
            )
        )
    kernel.run()
    cache = scheduler.timeline_cache
    assert cache is not None
    assert cache.rebuilds == 1
    assert cache.incremental_passes > 0
    assert not scheduler.pending and not scheduler.running


def test_cache_rebuilds_on_node_failure(kernel):
    """Capacity changes without allocation events (a node going DOWN)
    hit the full-rebuild escape hatch."""
    cluster = build_hpcqc_cluster(kernel, 8, ["d0"])
    cache = TimelineCache(cluster, debug=True)
    timeline = cache.timeline(cluster, 0.0)
    assert timeline.partitions["classical"].capacity_nodes == 8
    cluster.partition("classical").nodes[0].mark_down()
    timeline = cache.timeline(cluster, 0.0)
    assert cache.rebuilds == 2
    assert timeline.partitions["classical"].capacity_nodes == 7


def test_cache_rebuilds_when_horizon_overtakes_unbounded_end(kernel):
    """An allocation whose expected end sits at/past the horizon when
    applied gains a give-back breakpoint once ``now + HORIZON`` moves
    past it; the cache must rebuild rather than serve the divergent
    incremental profile (the debug cross-check would raise)."""
    cluster = build_hpcqc_cluster(kernel, 8, ["d0"])
    cache = TimelineCache(cluster, debug=True)
    cache.timeline(cluster, 0.0)
    kernel.run(until=10.0)
    assert kernel.now == 10.0
    cluster.allocate("long", "classical", 2, walltime=HORIZON + 5.0)
    # At t=20 the rebuild horizon (20 + HORIZON) exceeds the job's
    # expected end (10 + HORIZON + 5): served timeline must match a
    # fresh rebuild (debug mode asserts it).
    timeline = cache.timeline(cluster, 20.0)
    assert cache.rebuilds == 2
    free, _ = timeline.partitions["classical"].free_at(10.0 + HORIZON + 6.0)
    assert free == 8


def test_scheduler_close_detaches_cache(kernel):
    """Discarded schedulers must not keep maintaining timelines for a
    cluster that outlives them."""
    cluster = build_hpcqc_cluster(kernel, 8, ["d0"])
    first = BatchScheduler(kernel, cluster)
    cache = first.timeline_cache
    assert cache is not None
    assert len(cluster._allocation_listeners) == 1
    first.close()
    assert cluster._allocation_listeners == []
    assert first.timeline_cache is None
    assert first.policy.timeline_cache is None
    second = BatchScheduler(kernel, cluster)
    assert len(cluster._allocation_listeners) == 1
    second.close()


def test_cache_served_forks_are_isolated(kernel):
    cluster = build_hpcqc_cluster(kernel, 8, ["d0"])
    cache = TimelineCache(cluster, debug=True)
    first = cache.timeline(cluster, 0.0)
    first.occupy([JobComponent("classical", 8, 100.0)], 0.0, 100.0)
    second = cache.timeline(cluster, 0.0)
    assert second.fits_at([JobComponent("classical", 8, 100.0)], 0.0, 100.0)


def test_capacity_check_is_version_based(kernel):
    """No node-state churn => no rescan-triggered rebuilds; a drain (a
    capacity change without any allocation event) still forces one."""
    cluster = build_hpcqc_cluster(kernel, 8, ["d0"])
    cache = TimelineCache(cluster, debug=True)
    cache.timeline(cluster, 0.0)
    for _ in range(5):
        cache.timeline(cluster, 0.0)
    assert cache.rebuilds == 1
    cluster.partition("classical").nodes[0].drain()
    timeline = cache.timeline(cluster, 0.0)
    assert cache.rebuilds == 2
    assert timeline.partitions["classical"].capacity_nodes == 7


# -- compiled-array patching (occupy against a clean profile) -----------------


@given(occupation_stream=occupations, query_stream=queries)
@settings(max_examples=200, deadline=None)
def test_interleaved_occupy_and_fits_matches_naive(
    occupation_stream, query_stream
):
    """Alternating queries and occupations exercises the in-place
    compiled-array patch path (occupy against a clean profile) rather
    than the batch recompile; answers must still match the naive
    reference exactly."""
    compiled = PartitionTimeline(10, {"qpu": 3}, now=0.0)
    naive = NaivePartitionTimeline(10, {"qpu": 3}, now=0.0)
    stream = list(occupation_stream) or [(0.0, 1.0, 1, 0)]
    for index, (start, duration, nodes, gres_units) in enumerate(
        query_stream
    ):
        gres = {"qpu": gres_units} if gres_units else None
        assert compiled.fits(start, duration, nodes, gres) == naive.fits(
            start, duration, nodes, gres
        )
        ostart, length, onodes, ogres_units = stream[index % len(stream)]
        ogres = {"qpu": ogres_units} if ogres_units else None
        compiled.occupy(ostart, ostart + length, onodes, ogres)
        naive.occupy(ostart, ostart + length, onodes, ogres)
    assert profiles_equal(
        compiled, _as_partition_timeline(naive)
    )


def _as_partition_timeline(naive):
    """Rebuild a compiled timeline from a naive reference's deltas."""
    rebuilt = PartitionTimeline(0, {}, naive.now)
    rebuilt._times = list(naive._times)
    rebuilt._node_deltas = list(naive._node_deltas)
    rebuilt._gres_deltas = [dict(d) for d in naive._gres_deltas]
    rebuilt._dirty = True
    return rebuilt


@given(occupation_stream=occupations)
@settings(max_examples=200, deadline=None)
def test_patched_arrays_equal_recompile(occupation_stream):
    """After any mix of patched occupations, the in-place compiled
    arrays are exactly what a from-scratch compile of the same deltas
    produces (integer prefix sums patch without drift)."""
    timeline = PartitionTimeline(10, {"qpu": 3}, now=0.0)
    timeline.compile()  # start clean so every occupy patches
    for start, length, nodes, gres_units in occupation_stream:
        gres = {"qpu": gres_units} if gres_units else None
        timeline.occupy(start, start + length, nodes, gres)
        assert not timeline._dirty, "patched occupy must stay compiled"
    twin = PartitionTimeline(10, {"qpu": 3}, now=0.0)
    twin._times = list(timeline._times)
    twin._node_deltas = list(timeline._node_deltas)
    twin._gres_deltas = [dict(d) for d in timeline._gres_deltas]
    twin.compile()
    assert timeline._cnodes == twin._cnodes
    assert timeline._snodes == twin._snodes
    for gres_type, column in twin._cgres.items():
        assert timeline._cgres.get(gres_type, column) == column
    for gres_type, column in twin._sgres.items():
        assert timeline._sgres.get(gres_type, column) == column


@given(occupation_stream=occupations)
@settings(max_examples=150, deadline=None)
def test_flush_merge_and_insert_paths_agree(occupation_stream):
    """Buffered deltas merged in one pass (big batches) and
    bisect-inserted one by one (small batches) yield the same
    profile."""
    batched = PartitionTimeline(10, {"qpu": 3}, now=0.0)
    stepped = PartitionTimeline(10, {"qpu": 3}, now=0.0)
    for start, length, nodes, gres_units in occupation_stream:
        gres = {"qpu": gres_units} if gres_units else None
        batched.occupy(start, start + length, nodes, gres)
        stepped.occupy(start, start + length, nodes, gres)
        stepped.compile()  # flush per occupation: insert path
    batched.compile()  # flush once: merge path (when deltas > threshold)
    assert profiles_equal(batched, stepped)


def test_fork_of_patched_timeline_does_not_leak():
    """A fork taken after in-place patches must not observe later
    patches on the parent (compiled arrays are copy-on-write too)."""
    parent = PartitionTimeline(10, {"qpu": 3}, now=0.0)
    parent.compile()
    parent.occupy(1.0, 5.0, 4, {"qpu": 1})
    child = parent.fork()
    before = (list(child._cnodes), list(child._snodes))
    parent.occupy(2.0, 6.0, 3, None)
    assert (list(child._cnodes), list(child._snodes)) == before
    assert child.fits(2.0, 3.0, 6, None) != parent.fits(2.0, 3.0, 6, None)
