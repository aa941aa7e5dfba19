"""Heterogeneous fleets through the scenario layer.

Covers the `FleetSpec.devices` extension end to end: spec validation
and canonicalisation, shorthand/devices build equivalence, the
`mixed-fleet` preset, fleet-routed hybrid trace jobs, per-device run
metrics, and the serial-vs-parallel byte-identity guarantee for
fleet-backed sweep points.
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.sweep import canonical_bytes, run_sweep
from repro.quantum.fleet import ROUTING_POLICIES
from repro.scenarios import (
    DeviceSpec,
    FleetSpec,
    ScenarioSpec,
    build,
    fleet_device_rows,
    get_scenario,
    run_scenario,
    run_scenario_point,
    scenario_sweep_spec,
    with_overrides,
)


class TestDeviceSpecValidation:
    def test_unknown_technology_rejected(self):
        with pytest.raises(ConfigurationError, match="technology"):
            DeviceSpec(technology="abacus").validate()

    def test_zero_count_rejected(self):
        with pytest.raises(ConfigurationError, match="count"):
            DeviceSpec(technology="photonic", count=0).validate()

    def test_zero_vqpus_rejected(self):
        with pytest.raises(ConfigurationError, match="vqpus"):
            DeviceSpec(
                technology="photonic", vqpus_per_qpu=0
            ).validate()

    def test_empty_name_prefix_rejected(self):
        with pytest.raises(ConfigurationError, match="prefix"):
            DeviceSpec(technology="photonic", name="").validate()


class TestFleetSpecValidation:
    def test_unknown_routing_rejected(self):
        with pytest.raises(ConfigurationError, match="routing"):
            FleetSpec(routing="psychic").validate()

    def test_routing_validated_against_fleet_policies(self):
        for policy in ROUTING_POLICIES:
            FleetSpec(routing=policy).validate()

    def test_devices_with_default_flat_fields_accepted(self):
        FleetSpec(devices=(DeviceSpec("trapped_ion"),)).validate()

    @pytest.mark.parametrize(
        "flat",
        [
            {"technology": "photonic"},
            {"qpu_count": 2},
            {"vqpus_per_qpu": 4},
        ],
    )
    def test_contradictory_flat_fields_rejected(self, flat):
        spec = FleetSpec(devices=(DeviceSpec("trapped_ion"),), **flat)
        with pytest.raises(
            ConfigurationError, match="mutually exclusive"
        ):
            spec.validate()

    def test_contradiction_error_names_the_flat_field(self):
        spec = FleetSpec(qpu_count=3, devices=(DeviceSpec("photonic"),))
        with pytest.raises(
            ConfigurationError, match="fleet.qpu_count=3"
        ):
            spec.validate()

    def test_nested_device_validation_runs(self):
        spec = FleetSpec(devices=(DeviceSpec("abacus"),))
        with pytest.raises(ConfigurationError, match="abacus"):
            spec.validate()


class TestCanonicalisation:
    def test_flat_shorthand_canonicalises_to_one_group(self):
        flat = FleetSpec(
            technology="trapped_ion", qpu_count=3, vqpus_per_qpu=2
        )
        (group,) = flat.canonical_devices()
        assert group == DeviceSpec(
            technology="trapped_ion", count=3, vqpus_per_qpu=2
        )

    def test_explicit_devices_pass_through(self):
        devices = (DeviceSpec("photonic"), DeviceSpec("annealer"))
        assert FleetSpec(devices=devices).canonical_devices() == devices

    def test_shorthand_and_devices_forms_build_identically(self):
        flat = ScenarioSpec(
            fleet=FleetSpec(
                technology="trapped_ion", qpu_count=2, vqpus_per_qpu=2
            )
        )
        explicit = ScenarioSpec(
            fleet=FleetSpec(
                devices=(
                    DeviceSpec(
                        "trapped_ion", count=2, vqpus_per_qpu=2
                    ),
                )
            )
        )
        a, b = build(flat), build(explicit)
        assert [q.name for q in a.qpus] == [q.name for q in b.qpus]
        assert [p.qpu.name for p in a.vqpu_pools] == [
            p.qpu.name for p in b.vqpu_pools
        ]
        assert [
            n.name for n in a.cluster.partition("quantum").nodes
        ] == [n.name for n in b.cluster.partition("quantum").nodes]

    def test_run_metrics_identical_across_forms(self):
        flat = ScenarioSpec(
            name="forms",
            fleet=FleetSpec(qpu_count=2),
        )
        explicit = ScenarioSpec(
            name="forms",
            fleet=FleetSpec(
                devices=(DeviceSpec("superconducting", count=2),)
            ),
        )
        assert canonical_bytes(
            run_scenario(flat, horizon=900.0)
        ) == canonical_bytes(run_scenario(explicit, horizon=900.0))


class TestDeviceRows:
    def test_rows_match_build_order_and_names(self):
        fleet = FleetSpec(
            devices=(
                DeviceSpec("superconducting", count=2),
                DeviceSpec("superconducting", name="legacy"),
                DeviceSpec("neutral_atom", vqpus_per_qpu=4),
            )
        )
        rows = fleet_device_rows(fleet)
        assert [row["name"] for row in rows] == [
            "superconducting-0",
            "superconducting-1",
            "legacy-0",
            "neutral_atom-0",
        ]
        env = build(ScenarioSpec(fleet=fleet))
        assert [q.name for q in env.qpus] == [r["name"] for r in rows]
        assert rows[3]["vqpus"] == 4 and rows[3]["qubits"] == 256

    def test_shared_prefix_indices_continue_across_groups(self):
        fleet = FleetSpec(
            devices=(
                DeviceSpec("superconducting", count=2),
                DeviceSpec("superconducting", count=1),
            )
        )
        names = [row["name"] for row in fleet_device_rows(fleet)]
        assert names == [
            "superconducting-0",
            "superconducting-1",
            "superconducting-2",
        ]


class TestHeterogeneousBuild:
    def test_fleet_installed_on_environment(self):
        env = build(get_scenario("baseline-32"))
        assert env.fleet is not None
        assert env.fleet.policy == "fastest_completion"
        assert env.fleet.qpus == env.qpus

    def test_mixed_fleet_preset_builds_all_technologies(self):
        env = build(get_scenario("mixed-fleet"))
        assert [q.name for q in env.qpus] == [
            "superconducting-0",
            "superconducting-1",
            "trapped_ion-0",
            "neutral_atom-0",
        ]
        assert len(env.cluster.partition("quantum").nodes) == 4

    def test_per_group_virtualisation(self):
        env = build(
            ScenarioSpec(
                fleet=FleetSpec(
                    devices=(
                        DeviceSpec("superconducting", vqpus_per_qpu=4),
                        DeviceSpec("trapped_ion"),
                    )
                )
            )
        )
        assert len(env.vqpu_pools) == 1
        assert env.vqpu_pools[0].qpu.name == "superconducting-0"
        # 4 virtual units + 1 direct device = 5 gres-backed nodes.
        assert len(env.cluster.partition("quantum").nodes) == 5

    def test_routing_override_reaches_the_fleet(self):
        spec = with_overrides(
            get_scenario("mixed-fleet"), {"fleet.routing": "round_robin"}
        )
        assert build(spec).fleet.policy == "round_robin"

    def test_maintenance_targets_mixed_fleet_device_names(self):
        env = build(get_scenario("mixed-fleet"))
        sc1 = env.qpus[1]
        assert sc1.name == "superconducting-1"
        assert sc1.pending_maintenance == [(3600.0, 1800.0)]


class TestFleetRunMetrics:
    def test_mixed_fleet_run_reports_per_device_metrics(self):
        metrics = run_scenario(get_scenario("mixed-fleet"), horizon=3600.0)
        assert metrics["fleet_policy"] == "fastest_completion"
        for device in (
            "superconducting-0",
            "superconducting-1",
            "trapped_ion-0",
            "neutral_atom-0",
        ):
            assert f"device_{device}_routed" in metrics
            assert f"device_{device}_executed" in metrics
            assert f"device_{device}_utilisation" in metrics
        # The trace's qpu_fraction routes kernel payloads through the
        # fleet: something must actually have been dispatched.
        assert metrics["fleet_routed_total"] > 0
        assert metrics["fleet_routed_total"] == sum(
            metrics[f"device_{d}_routed"]
            for d in (
                "superconducting-0",
                "superconducting-1",
                "trapped_ion-0",
                "neutral_atom-0",
            )
        )

    def test_eft_routing_prefers_fast_devices(self):
        metrics = run_scenario(get_scenario("mixed-fleet"), horizon=3600.0)
        fast = (
            metrics["device_superconducting-0_routed"]
            + metrics["device_superconducting-1_routed"]
        )
        slow = metrics["device_neutral_atom-0_routed"]
        assert fast > slow

    def test_fleet_routed_kernels_busy_the_devices(self):
        metrics = run_scenario(get_scenario("mixed-fleet"), horizon=3600.0)
        executed = sum(
            value
            for key, value in metrics.items()
            if key.endswith("_executed")
        )
        assert executed > 0

    def test_homogeneous_presets_report_zero_routed(self):
        metrics = run_scenario(get_scenario("baseline-32"), horizon=900.0)
        assert metrics["fleet_routed_total"] == 0
        assert metrics["device_superconducting-0_routed"] == 0

    def test_vqpu_leases_keep_admission_control(self):
        """A trace job holding a *virtual* QPU lease dispatches its
        payload through the lease, not the fleet router, so the
        pool's V-1 admission bound survives trace replay."""
        from repro.scenarios import ScenarioSpec, TraceJobSpec
        from repro.scenarios.spec import (
            FleetSpec as FS,
            TraceSpec,
            WorkloadSpec,
        )

        spec = ScenarioSpec(
            name="vqpu-trace",
            fleet=FS(vqpus_per_qpu=4),
            workload=WorkloadSpec(
                horizon=3600.0,
                trace=TraceSpec(
                    jobs=(
                        TraceJobSpec(1, 0.0, 300.0, 1, 600.0),
                        TraceJobSpec(2, 60.0, 300.0, 1, 600.0),
                    ),
                    qpu_fraction=1.0,
                ),
            ),
        )
        env = build(spec)
        from repro.scenarios.build import install_trace

        jobs = install_trace(env, spec.workload, 3600.0)
        env.kernel.run(until=3600.0)
        assert len(jobs) == 2
        # Kernels went through the pool (device executed them), and
        # the fleet router was bypassed.
        assert env.fleet.total_routed == 0
        assert env.vqpu_pools[0].total_requests == 2
        assert env.qpus[0].jobs_executed == 2


class TestFleetSweeps:
    def test_routing_axis_serial_vs_parallel_byte_identical(self):
        """The acceptance guarantee: a fleet.routing sweep over the
        mixed-fleet preset is byte-identical serial vs parallel."""
        spec = scenario_sweep_spec(
            "mixed-fleet",
            {"fleet.routing": ["capability", "fastest_completion"]},
            run_horizon=1800.0,
        )
        serial = run_sweep(spec, run_scenario_point, workers=1)
        parallel = run_sweep(spec, run_scenario_point, workers=2)
        assert canonical_bytes(serial.values) == canonical_bytes(
            parallel.values
        )
        first, second = serial.values
        assert first["fleet_policy"] == "capability"
        assert second["fleet_policy"] == "fastest_completion"

    def test_device_group_axis_changes_the_facility(self):
        # Not [1, ...]: the preset books maintenance on
        # superconducting-1, so that device must keep existing.
        spec = scenario_sweep_spec(
            "mixed-fleet",
            {"fleet.devices.0.count": [2, 3]},
            run_horizon=600.0,
        )
        small, large = run_sweep(
            spec, run_scenario_point, workers=1
        ).values
        assert "device_superconducting-2_routed" in large
        assert "device_superconducting-2_routed" not in small

    def test_bad_device_index_rejected(self):
        with pytest.raises(ConfigurationError, match="out of range"):
            with_overrides(
                get_scenario("mixed-fleet"),
                {"fleet.devices.9.count": 2},
            )

    def test_non_numeric_list_segment_names_the_mistake(self):
        with pytest.raises(
            ConfigurationError, match="expected a list index"
        ):
            with_overrides(
                get_scenario("mixed-fleet"),
                {"fleet.devices.first.count": 2},
            )
