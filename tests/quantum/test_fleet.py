"""Tests for heterogeneous fleet routing."""

import pytest

from repro.errors import ConfigurationError, QuantumDeviceError
from repro.quantum.circuit import Circuit
from repro.quantum.fleet import QPUFleet
from repro.quantum.qpu import QPU
from repro.quantum.technology import (
    NEUTRAL_ATOM,
    PHOTONIC,
    SUPERCONDUCTING,
    TRAPPED_ION,
)


@pytest.fixture
def fleet_devices(kernel):
    return [
        QPU(kernel, SUPERCONDUCTING, name="sc0"),
        QPU(kernel, TRAPPED_ION, name="ti0"),
        QPU(kernel, NEUTRAL_ATOM, name="na0"),
    ]


class TestConstruction:
    def test_empty_fleet_rejected(self):
        with pytest.raises(ConfigurationError):
            QPUFleet([])

    def test_unknown_policy_rejected(self, fleet_devices):
        with pytest.raises(ConfigurationError):
            QPUFleet(fleet_devices, policy="psychic")

    def test_duplicate_names_rejected(self, kernel):
        devices = [
            QPU(kernel, SUPERCONDUCTING, name="dup"),
            QPU(kernel, TRAPPED_ION, name="dup"),
        ]
        with pytest.raises(ConfigurationError):
            QPUFleet(devices)


class TestCapability:
    def test_wide_circuit_filters_devices(self, fleet_devices):
        fleet = QPUFleet(fleet_devices)
        wide = Circuit(200, 10)  # only neutral atom (256q) fits
        capable = fleet.capable_devices(wide)
        assert [q.name for q in capable] == ["na0"]

    def test_impossible_circuit_raises(self, fleet_devices):
        fleet = QPUFleet(fleet_devices)
        with pytest.raises(QuantumDeviceError):
            fleet.select_device(Circuit(1000, 10), 100)

    def test_capability_policy_takes_first_fit(self, fleet_devices):
        fleet = QPUFleet(fleet_devices, policy="capability")
        assert fleet.select_device(Circuit(10, 10), 100).name == "sc0"


class TestRoundRobin:
    def test_cycles_through_capable(self, kernel, fleet_devices):
        fleet = QPUFleet(fleet_devices, policy="round_robin")
        names = []
        for _ in range(6):
            event = fleet.run(Circuit(10, 10), 10)
            names.append(
                [n for n, c in fleet.routed_counts.items() if c][0]
            )
            del event
        assert fleet.routed_counts == {"sc0": 2, "ti0": 2, "na0": 2}


class TestLeastLoaded:
    def test_prefers_empty_queue(self, kernel, fleet_devices):
        fleet = QPUFleet(fleet_devices, policy="least_loaded")
        # Pile jobs directly onto sc0's inbox.
        sc0 = fleet_devices[0]
        for _ in range(3):
            sc0.run(Circuit(10, 10), 1000)
        chosen = fleet.select_device(Circuit(10, 10), 100)
        assert chosen.name in ("ti0", "na0")


class TestFastestCompletion:
    def test_prefers_fast_technology(self, fleet_devices):
        fleet = QPUFleet(fleet_devices, policy="fastest_completion")
        chosen = fleet.select_device(Circuit(10, 50), 1000)
        assert chosen.name == "sc0"

    def test_accounts_for_geometry_calibration(self, fleet_devices):
        fleet = QPUFleet(fleet_devices, policy="fastest_completion")
        na0 = fleet_devices[2]
        circuit = Circuit(10, 50, geometry="ring")
        with_cal = fleet.execution_estimate(na0, circuit, 100)
        na0._calibrated_geometry = "ring"
        without_cal = fleet.execution_estimate(na0, circuit, 100)
        assert with_cal - without_cal == pytest.approx(
            NEUTRAL_ATOM.geometry_calibration_duration
        )

    def test_backlog_steers_away(self, kernel):
        # Two identical devices: backlog on the first pushes kernels to
        # the second.
        devices = [
            QPU(kernel, SUPERCONDUCTING, name="sc0"),
            QPU(kernel, SUPERCONDUCTING, name="sc1"),
        ]
        fleet = QPUFleet(devices, policy="fastest_completion")
        fleet.run(Circuit(10, 10), 5000)
        chosen = fleet.select_device(Circuit(10, 10), 100)
        assert chosen.name == "sc1"

    def test_committed_backlog_settles_after_completion(
        self, kernel
    ):
        devices = [QPU(kernel, SUPERCONDUCTING, name="sc0")]
        fleet = QPUFleet(devices)
        fleet.run(Circuit(10, 10), 1000)
        assert fleet._committed["sc0"] > 0
        kernel.run()
        assert fleet._committed["sc0"] == 0.0


class TestAvailabilityAwareRouting:
    """Calibration and maintenance must steer ``fastest_completion``:
    a drained/calibrating device cannot keep winning on paper while
    its inbox stalls."""

    def _twin_fleet(self, kernel):
        devices = [
            QPU(kernel, SUPERCONDUCTING, name="sc0"),
            QPU(kernel, SUPERCONDUCTING, name="sc1"),
        ]
        return devices, QPUFleet(devices, policy="fastest_completion")

    def test_booked_maintenance_window_steers_away(self, kernel):
        devices, fleet = self._twin_fleet(kernel)
        # Ties break by name, so sc0 would win without the window.
        devices[0].schedule_maintenance(start=0.0, duration=600.0)
        chosen = fleet.select_device(Circuit(10, 10), 100)
        assert chosen.name == "sc1"
        assert fleet.availability_delay(devices[0]) == 600.0
        assert fleet.availability_delay(devices[1]) == 0.0

    def test_window_beyond_backlog_is_ignored(self, kernel):
        devices, fleet = self._twin_fleet(kernel)
        # A window opening far after the backlog clears does not delay
        # a kernel dispatched now.
        devices[0].schedule_maintenance(start=9e6, duration=600.0)
        assert fleet.availability_delay(devices[0]) == 0.0
        assert fleet.select_device(Circuit(10, 10), 100).name == "sc0"

    def test_in_progress_maintenance_counts_its_remainder(self, kernel):
        devices, fleet = self._twin_fleet(kernel)
        devices[0].schedule_maintenance(start=5.0, duration=600.0)

        def client():
            # Arrive after the window opens: the device performs the
            # overdue maintenance before serving this kernel.
            yield kernel.timeout(10.0)
            devices[0].run(Circuit(4, 10), 100)

        kernel.process(client())
        kernel.run(until=100.0)  # inside the pass (t=10 .. t=610)
        delay = fleet.availability_delay(devices[0])
        assert delay == pytest.approx(510.0)
        assert delay == pytest.approx(devices[0].unavailable_for)
        assert fleet.select_device(Circuit(10, 10), 100).name == "sc1"

    def test_maintained_device_stops_winning_end_to_end(self, kernel):
        """With the window booked, every kernel submitted during it
        lands on the healthy twin."""
        devices, fleet = self._twin_fleet(kernel)
        devices[0].schedule_maintenance(start=0.0, duration=3600.0)

        routed = []

        def client():
            for _ in range(5):
                fleet.run(Circuit(10, 10), 100)
                routed.append(dict(fleet.routed_counts))
                yield kernel.timeout(60.0)

        kernel.process(client())
        kernel.run(until=600.0)
        assert fleet.routed_counts["sc0"] == 0
        assert fleet.routed_counts["sc1"] == 5

    def test_scenario_maintenance_reaches_routing(self):
        """The FaultSchedule path: a QPUMaintenance window declared in
        a scenario steers the built environment's fleet."""
        from repro.scenarios import (
            DeviceSpec,
            FaultSchedule,
            FleetSpec,
            QPUMaintenance,
            ScenarioSpec,
            build,
        )

        env = build(
            ScenarioSpec(
                fleet=FleetSpec(
                    devices=(
                        DeviceSpec("superconducting", count=2),
                    )
                ),
                faults=FaultSchedule(
                    maintenance=(
                        QPUMaintenance(
                            qpu="superconducting-0",
                            start=0.0,
                            duration=1800.0,
                        ),
                    )
                ),
            )
        )
        chosen = env.fleet.select_device(Circuit(10, 10), 100)
        assert chosen.name == "superconducting-1"


class TestEndToEnd:
    def test_mixed_workload_all_complete(self, kernel, fleet_devices):
        fleet = QPUFleet(fleet_devices, policy="fastest_completion")
        events = []
        # Narrow fast kernels and one wide kernel only NA can run.
        for _ in range(4):
            events.append(fleet.run(Circuit(10, 50), 1000))
        events.append(fleet.run(Circuit(200, 20, geometry="g"), 100))
        kernel.run()
        assert all(event.processed for event in events)
        assert fleet.routed_counts["sc0"] >= 4
        assert fleet.routed_counts["na0"] == 1
        assert fleet.total_routed == 5

    def test_fleet_is_device_api_compatible(self, kernel):
        """A fleet can stand in for a QPU inside a gres binding."""
        from repro.cluster.builders import make_qpu_node

        devices = [
            QPU(kernel, SUPERCONDUCTING, name="sc0"),
            QPU(kernel, PHOTONIC, name="ph0"),
        ]
        fleet = QPUFleet(devices)
        node = make_qpu_node("qn0", [fleet])
        bound = node.free_gres("qpu")[0].device
        event = bound.run(Circuit(5, 10), 100)
        kernel.run()
        assert event.processed
