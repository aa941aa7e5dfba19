"""Declarative facility scenarios: specs, presets, build pipeline, sweeps.

The one-stop surface::

    from repro.scenarios import build, get_scenario, with_overrides

    env = build(get_scenario("baseline-32"), seed=7)

See :mod:`repro.scenarios.spec` for the dataclass tree,
:mod:`repro.scenarios.registry` for the named presets,
:mod:`repro.scenarios.build` for environment materialisation and fault
installation, and :mod:`repro.scenarios.sweeps` for dotted-path sweep
integration.
"""

from repro.scenarios.build import (
    background_trace,
    build,
    fleet_device_rows,
    install_background,
    resolve_trace_path,
    run_scenario,
)
from repro.scenarios.registry import (
    get_scenario,
    list_scenarios,
    register_scenario,
)
from repro.scenarios.spec import (
    DeviceSpec,
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
from repro.scenarios.sweeps import (
    point_scenario,
    run_scenario_point,
    run_scenario_sweep,
    scenario_sweep_spec,
)

__all__ = [
    # Spec tree
    "DeviceSpec",
    "FaultSchedule",
    "FleetSpec",
    "NodeFault",
    "PolicySpec",
    "QPUMaintenance",
    "RandomFailures",
    "ScenarioSpec",
    "TopologySpec",
    "TraceJobSpec",
    "TraceSpec",
    "WorkloadSpec",
    "with_overrides",
    # Presets
    "get_scenario",
    "list_scenarios",
    "register_scenario",
    # Build
    "background_trace",
    "build",
    "fleet_device_rows",
    "install_background",
    "resolve_trace_path",
    "run_scenario",
    # Sweeps
    "point_scenario",
    "run_scenario_point",
    "run_scenario_sweep",
    "scenario_sweep_spec",
]
