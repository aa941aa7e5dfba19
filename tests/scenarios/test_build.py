"""Tests for the build pipeline: environments, faults, workloads, runs."""

import importlib

import pytest

from repro.cluster.node import NodeState
from repro.scheduler.job import JobState
from repro.experiments.sweep import canonical_bytes
from repro.errors import ConfigurationError
from repro.scenarios import (
    FaultSchedule,
    FleetSpec,
    NodeFault,
    QPUMaintenance,
    RandomFailures,
    ScenarioSpec,
    TopologySpec,
    TraceJobSpec,
    TraceSpec,
    WorkloadSpec,
    background_trace,
    build,
    resolve_trace_path,
    run_scenario,
)
from repro.scenarios.build import (
    _drawn_background,
    _synthesise_background,
    compile_trace,
    install_trace,
)
from repro.scenarios.registry import get_scenario, list_scenarios

# The package re-exports the ``build`` function under the module's name.
build_module = importlib.import_module("repro.scenarios.build")


class TestBuildEquivalence:
    """What build(spec) materialises from each part of the spec."""

    def test_seed_override_beats_spec_seed(self):
        env = build(ScenarioSpec(seed=3), seed=11)
        assert env.streams.seed == 11

    def test_invalid_spec_rejected_before_building(self):
        with pytest.raises(ConfigurationError):
            build(ScenarioSpec(fleet=FleetSpec(qpu_count=0)))

    def test_topology_knobs_propagate(self):
        env = build(
            ScenarioSpec(
                topology=TopologySpec(
                    classical_nodes=4,
                    cores_per_node=128,
                    classical_max_walltime=3600.0,
                )
            )
        )
        classical = env.cluster.partition("classical")
        assert classical.nodes[0].cores == 128
        assert classical.max_walltime == 3600.0

    def test_monitoring_history_opt_in(self):
        plain = build(ScenarioSpec())
        assert plain.cluster.busy_nodes["classical"].history is None
        traced = build(
            ScenarioSpec.from_dict(
                {"monitoring": {"record_history": True}}
            )
        )
        assert traced.cluster.busy_nodes["classical"].history is not None


class TestFaultInstallation:
    def test_unknown_node_rejected_at_build_time(self):
        spec = ScenarioSpec(
            faults=FaultSchedule(
                events=(
                    NodeFault(time=1.0, action="fail", node="cn9999"),
                )
            )
        )
        with pytest.raises(ConfigurationError):
            build(spec)

    def test_unknown_qpu_rejected_at_build_time(self):
        spec = ScenarioSpec(
            faults=FaultSchedule(
                maintenance=(
                    QPUMaintenance(qpu="nonesuch", start=10.0,
                                   duration=5.0),
                )
            )
        )
        with pytest.raises(ConfigurationError):
            build(spec)

    def test_maintenance_booked_on_named_device(self):
        env = build(
            ScenarioSpec(
                faults=FaultSchedule(
                    maintenance=(
                        QPUMaintenance(
                            qpu="superconducting-0",
                            start=10.0,
                            duration=5.0,
                        ),
                    )
                )
            )
        )
        from repro.quantum.circuit import Circuit

        qpu = env.primary_qpu()

        def client(kernel):
            yield kernel.timeout(20.0)  # arrive after the window opens
            yield qpu.run(Circuit(4, 10), 100)

        env.kernel.process(client(env.kernel))
        env.kernel.run()
        # The overdue window ran before the kernel was served.
        assert qpu.maintenance_performed == 1

    def test_random_failures_attach_injector(self):
        env = build(
            ScenarioSpec(
                faults=FaultSchedule(
                    random_failures=RandomFailures(
                        mtbf=50.0, mean_repair_time=5.0
                    )
                )
            )
        )
        assert len(env.fault_injectors) == 1
        env.kernel.run(until=2000.0)
        assert env.fault_injectors[0].failure_count > 0

    def test_empty_schedule_installs_nothing(self):
        env = build(ScenarioSpec())
        assert env.fault_injectors == []
        # Kernel quiesces immediately: nothing but the scheduler waits.
        env.kernel.run(until=10.0)
        assert env.kernel.now == 10.0

    def test_simultaneous_events_apply_in_declaration_order(self):
        spec = ScenarioSpec(
            topology=TopologySpec(classical_nodes=4),
            faults=FaultSchedule(
                events=(
                    NodeFault(time=5.0, action="fail", node="cn0000"),
                    NodeFault(time=5.0, action="repair", node="cn0000"),
                )
            ),
        )
        env = build(spec)
        env.kernel.run(until=6.0)
        node = env.cluster.partition("classical").nodes[0]
        assert node.state == NodeState.IDLE


class TestBackgroundTrace:
    def test_zero_rho_yields_empty_trace(self):
        env = build(ScenarioSpec())
        assert background_trace(env, WorkloadSpec()) == []

    def test_poisson_and_diurnal_differ_only_in_arrivals(self):
        poisson = background_trace(
            build(ScenarioSpec(seed=1)),
            WorkloadSpec(background_rho=0.5, horizon=7200.0),
        )
        diurnal = background_trace(
            build(ScenarioSpec(seed=1)),
            WorkloadSpec(
                background_rho=0.5,
                horizon=7200.0,
                arrivals="diurnal",
                burst_amplitude=0.9,
            ),
        )
        assert poisson and diurnal
        assert [j.submit_time for j in poisson] != [
            j.submit_time for j in diurnal
        ]

    def test_trace_is_deterministic_per_seed(self):
        workload = WorkloadSpec(background_rho=0.6, horizon=3600.0)
        first = background_trace(build(ScenarioSpec(seed=2)), workload)
        second = background_trace(build(ScenarioSpec(seed=2)), workload)
        assert [
            (j.submit_time, j.runtime, j.nodes) for j in first
        ] == [(j.submit_time, j.runtime, j.nodes) for j in second]


POISSON = WorkloadSpec(background_rho=0.7, horizon=5400.0)
DIURNAL = WorkloadSpec(
    background_rho=0.7,
    horizon=5400.0,
    arrivals="diurnal",
    burst_amplitude=0.8,
    burst_period=3600.0,
)


def _uncached_draw(env, workload):
    """The draw background_trace memoises, made on the live stream."""
    return _synthesise_background(
        env.streams.stream("background"),
        workload,
        env.cluster.partition("classical").node_count,
    )


def _partly_consumed(seed, draws):
    env = build(ScenarioSpec(seed=seed))
    env.streams.stream("background").random(draws)
    return env


class TestBackgroundMemo:
    """A memo hit is indistinguishable from drawing again."""

    @pytest.mark.parametrize("workload", [POISSON, DIURNAL],
                             ids=["poisson", "diurnal"])
    @pytest.mark.parametrize("consumed", [0, 5])
    def test_hit_matches_uncached_draw_and_stream_state(
        self, workload, consumed
    ):
        reference = _partly_consumed(41, consumed)
        expected = _uncached_draw(reference, workload)
        expected_state = reference.streams.stream("background") \
            .bit_generator.state
        background_trace(_partly_consumed(41, consumed), workload)
        hits = _drawn_background.cache_info().hits
        env = _partly_consumed(41, consumed)
        jobs = background_trace(env, workload)
        assert _drawn_background.cache_info().hits == hits + 1
        assert jobs == expected
        stream = env.streams.stream("background")
        assert stream.bit_generator.state == expected_state
        assert stream.random(4).tolist() == reference.streams.stream(
            "background"
        ).random(4).tolist()

    def test_consecutive_draws_share_the_stream(self):
        # A second draw on the same environment starts where the first
        # left the stream, exactly as two uncached draws would.
        reference = build(ScenarioSpec(seed=43))
        expected = [
            _uncached_draw(reference, POISSON),
            _uncached_draw(reference, DIURNAL),
        ]
        for _ in range(2):
            env = build(ScenarioSpec(seed=43))
            got = [
                background_trace(env, POISSON),
                background_trace(env, DIURNAL),
            ]
            assert got == expected
            assert (
                env.streams.stream("background").bit_generator.state
                == reference.streams.stream("background").bit_generator.state
            )

    def test_partition_width_is_part_of_the_key(self):
        def wide():
            topology = TopologySpec(classical_nodes=64)
            return build(ScenarioSpec(seed=44, topology=topology))

        background_trace(build(ScenarioSpec(seed=44)), POISSON)
        assert background_trace(wide(), POISSON) == _uncached_draw(
            wide(), POISSON
        )

    def test_returned_list_is_private_to_the_caller(self):
        first = background_trace(build(ScenarioSpec(seed=45)), POISSON)
        expected = list(first)
        first.clear()
        assert background_trace(
            build(ScenarioSpec(seed=45)), POISSON
        ) == expected

    def test_memo_never_exceeds_its_bound(self):
        bound = _drawn_background.cache_info().maxsize
        assert bound == 32
        short = WorkloadSpec(background_rho=0.5, horizon=600.0)
        for seed in range(bound + 8):
            background_trace(build(ScenarioSpec(seed=seed)), short)
            assert _drawn_background.cache_info().currsize <= bound


def _trim_horizon(spec, seed):
    """A run horizon short of the workload horizon that falls exactly on
    a background submit time, so the boundary job is exercised."""
    trace = background_trace(build(spec, seed=seed), spec.workload)
    inside = [job.submit_time for job in trace if job.submit_time <= 1800.0]
    return (max(inside) if inside else 1800.0), trace


class TestHorizonTrim:
    """Installing only the background a run can reach changes nothing."""

    @pytest.mark.parametrize("preset", list_scenarios())
    @pytest.mark.parametrize("seed", [1, 7])
    def test_trimmed_run_matches_untrimmed_install(
        self, preset, seed, monkeypatch
    ):
        spec = get_scenario(preset)
        until, trace = _trim_horizon(spec, seed)
        assert until < spec.workload.horizon
        trimmed = run_scenario(spec, seed=seed, horizon=until)

        untrimmed_install = build_module.install_background
        monkeypatch.setattr(
            build_module,
            "install_background",
            lambda env, workload, until: untrimmed_install(env, workload),
        )
        untrimmed = run_scenario(spec, seed=seed, horizon=until)
        assert canonical_bytes(trimmed) == canonical_bytes(untrimmed)

        reachable = sum(1 for job in trace if job.submit_time <= until)
        assert trimmed["background_jobs"] == reachable
        if trace:
            # The run stops short, so the trim has work to do, and the
            # job submitted exactly at the stop time is kept.
            assert reachable < len(trace)
            assert any(job.submit_time == until for job in trace)


def _inline_trace(**kwargs) -> TraceSpec:
    defaults = dict(
        jobs=(
            TraceJobSpec(1, 0.0, 300.0, 4, 600.0),
            TraceJobSpec(2, 60.0, 600.0, 2, 1200.0),
            TraceJobSpec(3, 7200.0, 60.0, 1, 120.0),  # beyond horizon
        )
    )
    defaults.update(kwargs)
    return TraceSpec(**defaults)


class TestTraceReplay:
    def test_packaged_sample_resolves(self):
        path = resolve_trace_path("sample-32n.swf")
        assert path.is_file()

    def test_missing_trace_file_rejected_with_candidates(self):
        with pytest.raises(ConfigurationError, match="tried"):
            resolve_trace_path("no-such-trace.swf")

    def test_compile_clips_to_horizon(self):
        jobs = compile_trace(_inline_trace(), horizon=3600.0)
        assert [job.job_id for job in jobs] == [1, 2]

    def test_compile_loops_to_horizon(self):
        jobs = compile_trace(_inline_trace(loop=True), horizon=30000.0)
        assert len(jobs) > 3
        assert len({job.job_id for job in jobs}) == len(jobs)

    def test_compile_jitter_needs_rng(self):
        with pytest.raises(ConfigurationError):
            compile_trace(_inline_trace(jitter=10.0), horizon=3600.0)

    def test_trace_jobs_submitted_and_completed(self):
        spec = ScenarioSpec(
            workload=WorkloadSpec(
                horizon=3600.0, trace=_inline_trace()
            )
        )
        metrics = run_scenario(spec)
        assert metrics["trace_jobs"] == 2
        assert metrics["trace_completed"] == 2
        assert metrics["trace_mean_wait_s"] >= 0.0
        assert metrics["trace_mean_slowdown"] >= 1.0

    @pytest.mark.parametrize(
        "horizon", [-5.0, 0.0, float("nan"), float("inf")]
    )
    def test_run_horizon_not_finite_and_positive_is_rejected(
        self, horizon, monkeypatch
    ):
        def no_build(*args, **kwargs):
            raise AssertionError("built a scenario it cannot run")

        monkeypatch.setattr(build_module, "build", no_build)
        with pytest.raises(ConfigurationError, match="finite number"):
            run_scenario(ScenarioSpec(), horizon=horizon)

    def test_traceless_scenarios_report_zero(self):
        metrics = run_scenario(ScenarioSpec(), horizon=60.0)
        assert metrics["trace_jobs"] == 0
        assert metrics["trace_completed"] == 0

    def test_oversize_clamp_fits_partition(self):
        spec = ScenarioSpec(
            topology=TopologySpec(classical_nodes=2),
            workload=WorkloadSpec(
                horizon=3600.0,
                trace=TraceSpec(
                    jobs=(TraceJobSpec(1, 0.0, 60.0, 16, 120.0),)
                ),
            ),
        )
        metrics = run_scenario(spec)
        assert metrics["trace_completed"] == 1

    def test_oversize_drop_skips_job(self):
        spec = ScenarioSpec(
            topology=TopologySpec(classical_nodes=2),
            workload=WorkloadSpec(
                horizon=3600.0,
                trace=TraceSpec(
                    jobs=(
                        TraceJobSpec(1, 0.0, 60.0, 16, 120.0),
                        TraceJobSpec(2, 0.0, 60.0, 1, 120.0),
                    ),
                    oversize="drop",
                ),
            ),
        )
        metrics = run_scenario(spec)
        assert metrics["trace_jobs"] == 1

    def test_oversize_error_raises(self):
        spec = ScenarioSpec(
            topology=TopologySpec(classical_nodes=2),
            workload=WorkloadSpec(
                horizon=3600.0,
                trace=TraceSpec(
                    jobs=(TraceJobSpec(1, 0.0, 60.0, 16, 120.0),),
                    oversize="error",
                ),
            ),
        )
        with pytest.raises(ConfigurationError):
            run_scenario(spec)

    def test_qpu_fraction_routes_to_quantum_partition(self):
        spec = ScenarioSpec(
            workload=WorkloadSpec(
                horizon=3600.0,
                trace=_inline_trace(qpu_fraction=1.0),
            )
        )
        metrics = run_scenario(spec)
        assert metrics["trace_completed"] == 2
        assert metrics["utilisation_quantum"] > 0.0
        assert metrics["utilisation_classical"] == 0.0

    @pytest.mark.parametrize(
        "runtime, state, end",
        [
            (99.0, JobState.COMPLETED, 99.0),
            # The boundary rule: a job that runs exactly its requested
            # walltime is killed at the limit, not completed.
            (100.0, JobState.TIMEOUT, 100.0),
            (101.0, JobState.TIMEOUT, 100.0),
        ],
    )
    def test_walltime_boundary(self, runtime, state, end):
        workload = WorkloadSpec(
            horizon=3600.0,
            trace=TraceSpec(
                jobs=(TraceJobSpec(1, 0.0, runtime, 1, 100.0),)
            ),
        )
        env = build(ScenarioSpec(workload=workload), seed=1)
        jobs = install_trace(env, workload, 3600.0)  # filled as submitted
        env.kernel.run(until=3600.0)
        [job] = jobs
        assert job.state == state
        assert (job.start_time, job.end_time) == (0.0, end)

    def test_qpu_routing_is_seed_independent(self):
        trace = _inline_trace(qpu_fraction=0.5)
        env_a = build(ScenarioSpec(seed=1))
        env_b = build(ScenarioSpec(seed=99))
        jobs_a = install_trace(
            env_a,
            WorkloadSpec(horizon=3600.0, trace=trace),
            3600.0,
        )
        jobs_b = install_trace(
            env_b,
            WorkloadSpec(horizon=3600.0, trace=trace),
            3600.0,
        )
        env_a.kernel.run(until=3600.0)
        env_b.kernel.run(until=3600.0)
        assert [
            [c.partition for c in j.spec.components] for j in jobs_a
        ] == [[c.partition for c in j.spec.components] for j in jobs_b]

    def test_jitter_decorrelates_replications_deterministically(self):
        trace = _inline_trace(jitter=30.0)
        workload = WorkloadSpec(horizon=3600.0, trace=trace)

        def submits(seed):
            env = build(ScenarioSpec(seed=seed))
            rng = env.streams.stream("trace-jitter")
            return [
                job.submit_time
                for job in compile_trace(trace, 3600.0, rng=rng)
            ]

        assert submits(1) == submits(1)
        assert submits(1) != submits(2)

    def test_loop_with_explicit_horizon_only(self):
        """A horizonless workload loops to the run_scenario horizon."""
        spec = ScenarioSpec(
            workload=WorkloadSpec(trace=_inline_trace(loop=True))
        )
        metrics = run_scenario(spec, horizon=30000.0)
        assert metrics["trace_jobs"] > 3

    def test_trace_composes_with_background(self):
        spec = ScenarioSpec(
            workload=WorkloadSpec(
                background_rho=0.8,
                horizon=3600.0,
                trace=_inline_trace(),
            )
        )
        metrics = run_scenario(spec)
        assert metrics["background_jobs"] > 0
        assert metrics["trace_jobs"] == 2


class TestRunScenario:
    def test_metrics_shape(self):
        metrics = run_scenario(
            ScenarioSpec(
                workload=WorkloadSpec(
                    background_rho=0.5, horizon=1800.0
                )
            )
        )
        for key in (
            "scenario",
            "seed",
            "horizon_s",
            "background_jobs",
            "utilisation_classical",
            "utilisation_quantum",
            "qpu0_utilisation",
            "node_states",
        ):
            assert key in metrics
        assert metrics["background_jobs"] > 0
        assert 0.0 <= metrics["utilisation_classical"] <= 1.0

    def test_default_horizon_used_without_workload(self):
        metrics = run_scenario(ScenarioSpec())
        assert metrics["horizon_s"] == 3600.0

    def test_explicit_horizon_wins(self):
        metrics = run_scenario(ScenarioSpec(), horizon=120.0)
        assert metrics["horizon_s"] == 120.0
