"""Scenario sweeps: grid axes that target scenario fields by dotted path.

The PR-2 sweep engine executes declarative parameter grids; this module
teaches it to *perturb scenarios*.  A sweep point's params carry a
``preset`` name (or an inline ``scenario`` dict) plus any number of
dotted-path overrides (``"topology.classical_nodes": 64``), and the
module-level :func:`run_scenario_point` runner — picklable, so pool
workers can import it — materialises the perturbed scenario, drives it
and returns the flat metrics dict.  Results are byte-identical serial
vs parallel because the scenario is a pure function of (params, seed).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional, Sequence

from repro.experiments.resilience import ChaosSpec, FailurePolicy
from repro.experiments.sweep import SweepResult, SweepSpec, run_sweep
from repro.scenarios.build import run_scenario
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import ScenarioSpec, with_overrides

#: Reserved (non-dotted-path) parameter keys for scenario sweeps.
PRESET_KEY = "preset"
SCENARIO_KEY = "scenario"
HORIZON_KEY = "run_horizon"


def point_scenario(params: Mapping[str, Any]) -> ScenarioSpec:
    """The :class:`ScenarioSpec` one sweep point describes.

    ``params[PRESET_KEY]`` names a registered preset (or
    ``params[SCENARIO_KEY]`` holds an inline scenario dict); every other
    key except :data:`HORIZON_KEY` is a dotted-path override applied on
    top of it.

    >>> spec = point_scenario(
    ...     {"preset": "baseline-32", "topology.classical_nodes": 64}
    ... )
    >>> (spec.name, spec.topology.classical_nodes)
    ('baseline-32', 64)
    """
    remaining = dict(params)
    remaining.pop(HORIZON_KEY, None)
    preset = remaining.pop(PRESET_KEY, None)
    inline = remaining.pop(SCENARIO_KEY, None)
    if preset is not None:
        spec = get_scenario(preset)
    elif inline is not None:
        spec = ScenarioSpec.from_dict(inline)
    else:
        spec = ScenarioSpec()
    return with_overrides(spec, remaining)


def run_scenario_point(
    params: Dict[str, Any], seed: int
) -> Dict[str, Any]:
    """Sweep-engine point runner: perturb, build, drive, measure."""
    spec = point_scenario(params)
    return run_scenario(
        spec, seed=seed, horizon=params.get(HORIZON_KEY)
    )


def scenario_sweep_spec(
    preset: str,
    axes: Mapping[str, Sequence[Any]],
    experiment_id: Optional[str] = None,
    base_seed: int = 0,
    replications: int = 1,
    run_horizon: Optional[float] = None,
) -> SweepSpec:
    """A :class:`SweepSpec` whose axes are scenario dotted paths.

    Run the result with :func:`run_scenario_point`; trace-backed and
    fleet-backed presets sweep the same way
    (``"workload.trace.time_scale"``, ``"fleet.routing"``, or a
    numeric segment into one device group:
    ``"fleet.devices.0.count"``).

    >>> spec = scenario_sweep_spec(
    ...     "baseline-32", {"topology.classical_nodes": [16, 32, 64]}
    ... )
    >>> len(spec)
    3
    >>> spec.points()[0].params["preset"]
    'baseline-32'
    >>> routing = scenario_sweep_spec(
    ...     "mixed-fleet",
    ...     {"fleet.routing": ["capability", "fastest_completion"]},
    ... )
    >>> [p.params["fleet.routing"] for p in routing.points()]
    ['capability', 'fastest_completion']
    """
    constants: Dict[str, Any] = {PRESET_KEY: preset}
    if run_horizon is not None:
        constants[HORIZON_KEY] = run_horizon
    return SweepSpec(
        experiment_id=experiment_id or f"scenario:{preset}",
        axes=dict(axes),
        constants=constants,
        base_seed=base_seed,
        replications=replications,
    )


def run_scenario_sweep(
    spec: SweepSpec,
    workers: Optional[int] = None,
    cache: Optional[Any] = None,
    policy: Optional[FailurePolicy] = None,
    chaos: Optional[ChaosSpec] = None,
    journal: Optional[Any] = None,
    resume: bool = True,
    on_result: Optional[Callable[..., None]] = None,
) -> SweepResult:
    """Execute a scenario grid with full per-point outcome reporting.

    The fault-tolerance layer rides along: give the sweep a
    :class:`~repro.experiments.resilience.FailurePolicy` and a raising
    or crashing scenario point degrades into a structured
    :class:`~repro.experiments.resilience.Outcome` in
    ``result.outcomes`` instead of aborting the campaign; a store's
    ``cache`` and ``journal`` (see :func:`~repro.experiments.sweep.
    run_sweep`) make the campaign resumable after a hard kill.

    >>> sweep = scenario_sweep_spec(
    ...     "baseline-32", {"topology.classical_nodes": [16, 32]},
    ...     run_horizon=600.0)
    >>> result = run_scenario_sweep(sweep, workers=1)
    >>> [outcome.status for outcome in result.outcomes]
    ['ok', 'ok']
    >>> result.ok_count
    2
    """
    return run_sweep(
        spec,
        run_scenario_point,
        workers=workers,
        cache=cache,
        on_result=on_result,
        policy=policy,
        chaos=chaos,
        journal=journal,
        resume=resume,
    )
