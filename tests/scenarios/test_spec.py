"""Tests for the ScenarioSpec dataclass tree and its serialisation."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import (
    FaultSchedule,
    FleetSpec,
    NodeFault,
    PolicySpec,
    QPUMaintenance,
    RandomFailures,
    ScenarioSpec,
    TopologySpec,
    TraceJobSpec,
    TraceSpec,
    WorkloadSpec,
    with_overrides,
)


def _storm_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="spec-test",
        description="every section populated",
        topology=TopologySpec(classical_nodes=8, cores_per_node=32),
        fleet=FleetSpec(technology="trapped_ion", vqpus_per_qpu=2),
        workload=WorkloadSpec(
            background_rho=0.5, horizon=1800.0, max_nodes=8
        ),
        policy=PolicySpec(policy="conservative", scheduling_cycle=15.0),
        faults=FaultSchedule(
            events=(NodeFault(time=60.0, action="fail", node="cn0001"),),
            maintenance=(
                QPUMaintenance(qpu="trapped_ion-0", start=600.0,
                               duration=120.0),
            ),
            random_failures=RandomFailures(
                mtbf=3600.0, mean_repair_time=60.0
            ),
        ),
        seed=17,
    )


class TestRoundTrip:
    def test_dict_round_trip_is_lossless(self):
        spec = _storm_spec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip_is_lossless(self):
        spec = _storm_spec()
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_defaults_round_trip(self):
        spec = ScenarioSpec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_keys_rejected(self):
        data = ScenarioSpec().to_dict()
        data["warp_drive"] = True
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_dict(data)

    def test_unknown_nested_keys_rejected(self):
        data = ScenarioSpec().to_dict()
        data["topology"]["warp_nodes"] = 3
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_dict(data)

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_json("{not json")
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_json("[1, 2]")


class TestValidation:
    def test_valid_spec_validates(self):
        assert _storm_spec().validate() is not None

    @pytest.mark.parametrize(
        "mutation",
        [
            {"topology": TopologySpec(classical_nodes=-1)},
            {"topology": TopologySpec(cores_per_node=0)},
            {"fleet": FleetSpec(technology="abacus")},
            {"fleet": FleetSpec(qpu_count=0)},
            {"fleet": FleetSpec(vqpus_per_qpu=0)},
            {"workload": WorkloadSpec(background_rho=-0.5)},
            {"workload": WorkloadSpec(background_rho=0.5, horizon=0.0)},
            {"workload": WorkloadSpec(horizon=-1.0)},
            {"workload": WorkloadSpec(horizon=float("nan"))},
            {"workload": WorkloadSpec(horizon=float("inf"))},
            {"workload": WorkloadSpec(min_runtime=10.0, max_runtime=1.0)},
            {"workload": WorkloadSpec(arrivals="meteoric")},
            {"policy": PolicySpec(policy="wishful")},
            {"policy": PolicySpec(scheduling_cycle=-1.0)},
            {"policy": PolicySpec(priority_age=-1.0)},
            {"name": ""},
        ],
    )
    def test_bad_sections_rejected(self, mutation):
        spec = dataclasses.replace(ScenarioSpec(), **mutation)
        with pytest.raises(ConfigurationError):
            spec.validate()

    def test_background_bigger_than_partition_rejected(self):
        spec = ScenarioSpec(
            topology=TopologySpec(classical_nodes=8),
            workload=WorkloadSpec(
                background_rho=0.5, horizon=100.0, max_nodes=16
            ),
        )
        with pytest.raises(ConfigurationError):
            spec.validate()

    @pytest.mark.parametrize(
        "fault",
        [
            NodeFault(time=-1.0, action="fail", node="cn0"),
            NodeFault(time=0.0, action="explode", node="cn0"),
            NodeFault(time=0.0, action="fail", node=""),
        ],
    )
    def test_bad_fault_events_rejected(self, fault):
        spec = ScenarioSpec(faults=FaultSchedule(events=(fault,)))
        with pytest.raises(ConfigurationError):
            spec.validate()

    def test_bad_maintenance_rejected(self):
        spec = ScenarioSpec(
            faults=FaultSchedule(
                maintenance=(
                    QPUMaintenance(qpu="q", start=0.0, duration=0.0),
                )
            )
        )
        with pytest.raises(ConfigurationError):
            spec.validate()

    def test_bad_random_failures_rejected(self):
        spec = ScenarioSpec(
            faults=FaultSchedule(
                random_failures=RandomFailures(
                    mtbf=0.0, mean_repair_time=1.0
                )
            )
        )
        with pytest.raises(ConfigurationError):
            spec.validate()


class TestOverrides:
    def test_scalar_override(self):
        spec = with_overrides(
            ScenarioSpec(), {"topology.classical_nodes": 64}
        )
        assert spec.topology.classical_nodes == 64
        # Original untouched (specs are values).
        assert ScenarioSpec().topology.classical_nodes == 32

    def test_multiple_sections_in_one_call(self):
        spec = with_overrides(
            ScenarioSpec(),
            {
                "fleet.vqpus_per_qpu": 4,
                "policy.scheduling_cycle": 30.0,
                "seed": 9,
            },
        )
        assert spec.fleet.vqpus_per_qpu == 4
        assert spec.policy.scheduling_cycle == 30.0
        assert spec.seed == 9

    def test_structured_override_takes_plain_data(self):
        spec = with_overrides(
            ScenarioSpec(),
            {
                "faults.events": [
                    {"time": 5.0, "action": "fail", "node": "cn0000"}
                ]
            },
        )
        assert spec.faults.events == (
            NodeFault(time=5.0, action="fail", node="cn0000"),
        )

    def test_unknown_path_rejected(self):
        with pytest.raises(ConfigurationError):
            with_overrides(ScenarioSpec(), {"topology.warp_nodes": 1})
        with pytest.raises(ConfigurationError):
            with_overrides(ScenarioSpec(), {"nope.classical_nodes": 1})

    def test_override_result_is_validated(self):
        with pytest.raises(ConfigurationError):
            with_overrides(ScenarioSpec(), {"fleet.qpu_count": 0})

    def test_empty_overrides_return_same_spec(self):
        spec = ScenarioSpec()
        assert with_overrides(spec, {}) is spec


def _trace_spec(**kwargs) -> TraceSpec:
    defaults = dict(path="sample-32n.swf")
    defaults.update(kwargs)
    return TraceSpec(**defaults)


class TestTraceSpec:
    def test_file_backed_round_trip(self):
        spec = ScenarioSpec(
            workload=WorkloadSpec(
                horizon=3600.0,
                trace=_trace_spec(
                    time_scale=0.5,
                    runtime_scale=2.0,
                    qpu_fraction=0.25,
                    limit=10,
                    loop=True,
                    jitter=15.0,
                ),
            )
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_inline_jobs_round_trip(self):
        spec = ScenarioSpec(
            workload=WorkloadSpec(
                trace=TraceSpec(
                    jobs=(
                        TraceJobSpec(1, 0.0, 60.0, 2, 120.0),
                        TraceJobSpec(2, 30.0, 0.0, 1, 60.0,
                                     user="user3"),
                    )
                )
            )
        )
        rebuilt = ScenarioSpec.from_json(spec.to_json())
        assert rebuilt == spec
        assert isinstance(rebuilt.workload.trace.jobs[0], TraceJobSpec)

    def test_valid_trace_validates(self):
        ScenarioSpec(
            workload=WorkloadSpec(trace=_trace_spec())
        ).validate()

    @pytest.mark.parametrize(
        "trace",
        [
            TraceSpec(),  # no source
            TraceSpec(path="x.swf", jobs=(
                TraceJobSpec(1, 0.0, 1.0, 1, 2.0),
            )),  # both sources
            _trace_spec(time_scale=0.0),
            _trace_spec(runtime_scale=-1.0),
            _trace_spec(partition=""),
            _trace_spec(max_nodes=0),
            _trace_spec(oversize="explode"),
            _trace_spec(qpu_fraction=1.5),
            _trace_spec(limit=0),
            _trace_spec(jitter=-1.0),
        ],
    )
    def test_bad_trace_rejected(self, trace):
        spec = ScenarioSpec(workload=WorkloadSpec(trace=trace))
        with pytest.raises(ConfigurationError):
            spec.validate()

    @pytest.mark.parametrize(
        "job",
        [
            TraceJobSpec(1, -1.0, 1.0, 1, 2.0),
            TraceJobSpec(1, 0.0, -1.0, 1, 2.0),
            TraceJobSpec(1, 0.0, 1.0, 0, 2.0),
            TraceJobSpec(1, 0.0, 1.0, 1, 0.0),
        ],
    )
    def test_bad_inline_jobs_rejected(self, job):
        spec = ScenarioSpec(
            workload=WorkloadSpec(trace=TraceSpec(jobs=(job,)))
        )
        with pytest.raises(ConfigurationError):
            spec.validate()

    def test_loop_without_workload_horizon_is_valid(self):
        """Looping targets the *run* horizon, which run_scenario
        requires to be finite and positive — a horizonless workload
        must not be rejected."""
        ScenarioSpec(
            workload=WorkloadSpec(trace=_trace_spec(loop=True))
        ).validate()

    def test_dotted_override_targets_trace_fields(self):
        spec = ScenarioSpec(
            workload=WorkloadSpec(horizon=3600.0, trace=_trace_spec())
        )
        fast = with_overrides(
            spec, {"workload.trace.time_scale": 0.25}
        )
        assert fast.workload.trace.time_scale == 0.25
        # The original is a value; it never changes.
        assert spec.workload.trace.time_scale == 1.0

    def test_override_can_install_a_whole_trace(self):
        spec = with_overrides(
            ScenarioSpec(),
            {"workload.trace": {"path": "sample-32n.swf",
                                "limit": 5}},
        )
        assert spec.workload.trace == TraceSpec(
            path="sample-32n.swf", limit=5
        )
