"""Scenario sweeps: dotted-path axes through the parallel sweep engine."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.sweep import canonical_bytes, run_sweep
from repro.scenarios import (
    point_scenario,
    run_scenario_point,
    scenario_sweep_spec,
)


class TestPointScenario:
    def test_preset_plus_dotted_overrides(self):
        spec = point_scenario(
            {"preset": "baseline-32", "topology.classical_nodes": 64}
        )
        assert spec.name == "baseline-32"
        assert spec.topology.classical_nodes == 64

    def test_inline_scenario_dict(self):
        spec = point_scenario(
            {
                "scenario": {"name": "inline", "seed": 3},
                "fleet.vqpus_per_qpu": 2,
            }
        )
        assert spec.name == "inline"
        assert spec.fleet.vqpus_per_qpu == 2

    def test_defaults_without_preset(self):
        assert point_scenario({}).name == "custom"

    def test_run_horizon_key_is_not_an_override(self):
        spec = point_scenario({"preset": "baseline-32", "run_horizon": 60.0})
        assert spec.name == "baseline-32"

    def test_bad_path_propagates(self):
        with pytest.raises(ConfigurationError):
            point_scenario({"preset": "baseline-32", "topology.warp": 1})


class TestScenarioSweep:
    def test_axes_are_dotted_paths(self):
        spec = scenario_sweep_spec(
            "baseline-32",
            {"topology.classical_nodes": [16, 32, 64]},
            run_horizon=600.0,
        )
        assert len(spec) == 3
        points = spec.points()
        assert [
            p.params["topology.classical_nodes"] for p in points
        ] == [16, 32, 64]
        assert all(p.params["preset"] == "baseline-32" for p in points)

    def test_whole_number_horizon_names_the_float_points(self):
        """TOML and JSON parse ``3600`` as an int; ``--horizon`` gives
        ``3600.0``.  Both name one grid: same digest, seeds and keys."""
        whole, real = (
            scenario_sweep_spec(
                "baseline-32",
                {"topology.classical_nodes": [16]},
                run_horizon=horizon,
            )
            for horizon in (3600, 3600.0)
        )
        # The float form's identity is the one stored grids carry.
        assert whole.digest == real.digest == "aeec73b151025b1e"
        assert [p.seed for p in whole.points()] == [
            p.seed for p in real.points()
        ] == [11414547641765158460]
        assert whole.points()[0].key() == real.points()[0].key()
        assert type(whole.points()[0].params["run_horizon"]) is float

    @pytest.mark.parametrize("horizon", [True, "3600", [3600]])
    def test_non_number_horizon_is_rejected(self, horizon):
        with pytest.raises(ConfigurationError, match="run_horizon"):
            scenario_sweep_spec(
                "baseline-32", {"seed": [1]}, run_horizon=horizon
            )

    @pytest.mark.parametrize(
        "horizon", [-5, 0, 0.0, float("nan"), float("inf")]
    )
    def test_horizon_not_finite_and_positive_is_rejected(self, horizon):
        with pytest.raises(ConfigurationError, match="finite number"):
            scenario_sweep_spec(
                "baseline-32", {"seed": [1]}, run_horizon=horizon
            )

    def test_serial_vs_parallel_byte_identical(self):
        spec = scenario_sweep_spec(
            "baseline-32",
            {"topology.classical_nodes": [16, 64]},
            run_horizon=900.0,
        )
        serial = run_sweep(spec, run_scenario_point, workers=1)
        parallel = run_sweep(spec, run_scenario_point, workers=2)
        assert canonical_bytes(serial.values) == canonical_bytes(
            parallel.values
        )

    def test_trace_axis_serial_vs_parallel_byte_identical(self):
        """The acceptance guarantee: trace-backed sweep points are
        byte-identical serial vs parallel, and a dotted-path axis on a
        trace-rescale field really perturbs the replay."""
        spec = scenario_sweep_spec(
            "trace-replay",
            {"workload.trace.time_scale": [1.0, 0.5]},
            run_horizon=7200.0,
        )
        serial = run_sweep(spec, run_scenario_point, workers=1)
        parallel = run_sweep(spec, run_scenario_point, workers=2)
        assert canonical_bytes(serial.values) == canonical_bytes(
            parallel.values
        )
        slow, fast = serial.values
        # Compressing arrivals (0.5) packs the same work into half the
        # time: waits cannot get shorter.
        assert (
            fast["trace_mean_wait_s"] >= slow["trace_mean_wait_s"]
        )

    def test_axis_actually_changes_the_facility(self):
        spec = scenario_sweep_spec(
            "baseline-32",
            {"topology.classical_nodes": [16, 64]},
            run_horizon=900.0,
        )
        small, large = run_sweep(
            spec, run_scenario_point, workers=1
        ).values
        # Same offered absolute workload spec, kept-constant rho means
        # per-partition utilisation stays in a sane band but the node
        # state census reflects the axis.
        assert sum(small["node_states"].values()) == 16 + 1
        assert sum(large["node_states"].values()) == 64 + 1
