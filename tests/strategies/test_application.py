"""Tests for the hybrid application phase model."""

import pytest

from repro.errors import ConfigurationError
from repro.quantum.circuit import Circuit
from repro.quantum.technology import NEUTRAL_ATOM, SUPERCONDUCTING
from repro.strategies.application import (
    HybridApplication,
    PhaseKind,
    classical,
    quantum,
    vqe_like,
)


def simple_app(**overrides):
    defaults = dict(
        phases=[classical(100.0), quantum(Circuit(5, 10), 100)],
        classical_nodes=4,
    )
    defaults.update(overrides)
    return HybridApplication(**defaults)


class TestPhases:
    def test_classical_phase(self):
        phase = classical(60.0)
        assert phase.kind == PhaseKind.CLASSICAL
        assert not phase.is_quantum

    def test_quantum_phase(self):
        phase = quantum(Circuit(3, 5), 100)
        assert phase.is_quantum
        assert phase.shots == 100

    def test_quantum_needs_circuit_and_shots(self):
        with pytest.raises(ConfigurationError):
            quantum(Circuit(3, 5), 0)

    def test_negative_classical_work_rejected(self):
        with pytest.raises(ConfigurationError):
            classical(-1.0)


class TestApplicationValidation:
    def test_needs_phases(self):
        with pytest.raises(ConfigurationError):
            HybridApplication(phases=[], classical_nodes=1)

    def test_min_nodes_range(self):
        with pytest.raises(ConfigurationError):
            simple_app(classical_nodes=4, min_classical_nodes=8)

    def test_serial_fraction_range(self):
        with pytest.raises(ConfigurationError):
            simple_app(serial_fraction=2.0)


class TestAmdahlScaling:
    def test_single_node_time_is_work(self):
        app = simple_app(serial_fraction=0.0)
        phase = app.phases[0]
        assert app.classical_time(phase, 1) == pytest.approx(100.0)

    def test_perfect_scaling_with_zero_serial(self):
        app = simple_app(serial_fraction=0.0)
        phase = app.phases[0]
        assert app.classical_time(phase, 4) == pytest.approx(25.0)

    def test_serial_fraction_limits_speedup(self):
        app = simple_app(serial_fraction=0.5)
        phase = app.phases[0]
        # 50 serial + 50/4 parallel
        assert app.classical_time(phase, 4) == pytest.approx(62.5)

    def test_quantum_phase_rejected(self):
        app = simple_app()
        with pytest.raises(ConfigurationError):
            app.classical_time(app.phases[1], 4)

    def test_more_nodes_never_slower(self):
        app = simple_app(serial_fraction=0.1)
        phase = app.phases[0]
        times = [app.classical_time(phase, n) for n in (1, 2, 4, 8, 16)]
        assert times == sorted(times, reverse=True)


class TestMakespan:
    def test_ideal_makespan_sums_phases(self):
        app = simple_app(serial_fraction=0.0)
        technology = SUPERCONDUCTING
        expected = 25.0 + technology.execution_time(
            app.phases[1].circuit, 100
        )
        assert app.ideal_makespan(technology) == pytest.approx(expected)

    def test_calibration_counted_once_per_geometry_change(self):
        circuit_a = Circuit(5, 10, geometry="A")
        circuit_b = Circuit(5, 10, geometry="B")
        app = HybridApplication(
            phases=[
                quantum(circuit_a, 10),
                quantum(circuit_a, 10),  # cached
                quantum(circuit_b, 10),  # change
            ],
            classical_nodes=1,
        )
        assert app.calibration_overhead(NEUTRAL_ATOM) == pytest.approx(
            2 * NEUTRAL_ATOM.geometry_calibration_duration
        )

    def test_no_calibration_for_superconducting(self):
        app = simple_app()
        assert app.calibration_overhead(SUPERCONDUCTING) == 0.0

    def test_phase_counts(self):
        app = vqe_like(3, 10.0, Circuit(4, 10))
        assert app.quantum_phase_count == 3
        assert app.classical_phase_count == 3


class TestFactories:
    def test_vqe_alternates_phases(self):
        app = vqe_like(4, 100.0, Circuit(4, 10), final_analysis=50.0)
        kinds = [phase.kind for phase in app.phases]
        assert kinds[0] == PhaseKind.CLASSICAL
        assert kinds[1] == PhaseKind.QUANTUM
        assert len(app.phases) == 9  # 4 pairs + final analysis
        assert kinds[-1] == PhaseKind.CLASSICAL

    def test_vqe_validates_iterations(self):
        with pytest.raises(ConfigurationError):
            vqe_like(0, 10.0, Circuit(4, 10))

    def test_names_auto_generated_and_unique(self):
        a = simple_app()
        b = simple_app()
        assert a.name != b.name
