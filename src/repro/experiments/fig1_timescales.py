"""E1 — Fig 1: time scales of quantum jobs/shots per technology.

Regenerates the paper's Fig 1 as a table: per technology, the duration
of one shot, of a standard 1000-shot job, and of a job *including* the
calibration the technology imposes (Fig 1's caption includes
register-geometry calibration for neutral atoms).  Each duration is
both computed analytically from the timing model and *measured* on the
simulated device, and must fall in the figure's qualitative band.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.experiments.harness import (
    ExperimentResult,
    attach_sweep_failures,
)
from repro.experiments.sweep import SweepSpec, run_cached_sweep
from repro.metrics.report import format_duration
from repro.quantum.technology import (
    TECHNOLOGIES,
    fig1_reference_bands,
    standard_job,
)
from repro.scenarios import FleetSpec, ScenarioSpec, TopologySpec, build

#: Fig 1 orders technologies fastest job first.
_ORDER = [
    "photonic",
    "annealer",
    "superconducting",
    "trapped_ion",
    "neutral_atom",
]


def device_scenario(technology_name: str) -> ScenarioSpec:
    """A minimal single-device facility for bare-metal measurement."""
    return ScenarioSpec(
        name=f"fig1-{technology_name}",
        description="One QPU, no load: measure raw job time scales.",
        topology=TopologySpec(classical_nodes=1),
        fleet=FleetSpec(technology=technology_name),
    )


def _run_point(params: Dict[str, Any], seed: int) -> Dict[str, float]:
    """One technology: analytic durations plus one measured job."""
    name = params["technology"]
    technology = TECHNOLOGIES[name]
    circuit, job_shots = standard_job(technology, shots=params["shots"])
    # Measure on a simulated device (deterministic: no jitter).
    env = build(device_scenario(name))
    completion = env.primary_qpu().run(circuit, job_shots)
    measured = env.kernel.run(until=completion)
    return {
        "shot": technology.shot_time(circuit),
        "job": technology.execution_time(circuit, job_shots),
        "job_with_calibration": technology.job_time_with_calibration(
            circuit, job_shots
        ),
        "measured": measured.execution_time + measured.calibration_time,
    }


def sweep_spec(seed: int = 0, shots: int = 1000) -> SweepSpec:
    """One point per technology, in Fig 1's order."""
    return SweepSpec(
        experiment_id="E1",
        axes={"technology": _ORDER},
        constants={"shots": shots},
        base_seed=seed,
        seed_mode="shared",
    )


def run(
    seed: int = 0, shots: int = 1000, **sweep_options: Any
) -> ExperimentResult:
    """Regenerate Fig 1's time-scale table."""
    result = ExperimentResult(
        experiment_id="E1",
        title="Time scales of quantum jobs/shots (Fig 1)",
        description=(
            "Shot and job durations per QPU technology, measured on the "
            "simulated device; neutral-atom jobs include register-geometry "
            "calibration as in the figure's caption."
        ),
        parameters={"shots": shots},
    )
    sweep_result = run_cached_sweep(
        sweep_spec(seed=seed, shots=shots), _run_point, **sweep_options
    )
    if attach_sweep_failures(result, sweep_result):
        return result
    bands = fig1_reference_bands()
    rows = []
    durations = {}
    for point, values in zip(sweep_result.points, sweep_result.values):
        name = point.params["technology"]
        durations[name] = values["job_with_calibration"]
        measured_total = values["measured"]
        low, high = bands[name]
        rows.append(
            [
                name,
                format_duration(values["shot"]),
                format_duration(values["job"]),
                format_duration(values["job_with_calibration"]),
                format_duration(measured_total),
                f"{format_duration(low)} - {format_duration(high)}",
            ]
        )
        result.check(
            f"{name}: job duration (incl. calibration) lands in the "
            f"Fig 1 band",
            low <= measured_total <= high,
            detail=(
                f"measured {measured_total:.3g}s, band [{low:.3g}, "
                f"{high:.3g}]s"
            ),
        )
    result.add_table(
        f"Quantum job time scales ({shots} shots of a standard kernel)",
        [
            "technology",
            "shot",
            "job (exec)",
            "job (+calibration)",
            "measured",
            "Fig 1 band",
        ],
        rows,
    )

    # The figure's headline: the spread across technologies covers
    # orders of magnitude.
    spread = max(durations.values()) / min(durations.values())
    result.check(
        "job durations span >= 3 orders of magnitude across technologies",
        spread >= 1e3,
        detail=f"spread factor {spread:.3g}",
    )
    result.check(
        "superconducting jobs are second-scale while neutral-atom jobs "
        "exceed 30 min (the paper's Listing 1 discussion)",
        durations["superconducting"] < 60.0
        and durations["neutral_atom"] > 1800.0,
    )
    return result
