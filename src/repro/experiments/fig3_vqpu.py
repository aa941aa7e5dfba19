"""E4 — Fig 3: virtual QPUs / temporal interleaving.

N tenant applications — long classical computation interleaved with
short quantum kernels — share one physical superconducting QPU.  The
quantum partition exposes V virtual QPU gres units:

- V = 1 is exclusive access: tenants serialise at the *job* level
  (each holds the QPU for its full lifetime);
- V = N lets all tenants co-schedule and interleave kernels on the
  device "with minimal delays, bounded by the number of VQPUs".

The experiment regenerates Fig 3 as a sweep over V: campaign makespan,
mean tenant turnaround, physical-QPU busy fraction, and the measured
per-request interleaving delay against the (V−1)·task-time bound.

The marginal-gains caveat is also reproduced: for quantum-dominated
tenants ("the time needed by the quantum partition is comparable to or
greater than the one required to prepare the data"), virtualisation
stops helping.

The two sub-sweeps (classical-dominated V sweep, quantum-dominated
caveat pair) are one non-rectangular :class:`SweepSpec` executed
through the parallel sweep engine.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.experiments.common import campaign_scenario, standard_hybrid_app
from repro.experiments.harness import (
    ExperimentResult,
    attach_sweep_failures,
)
from repro.experiments.sweep import (
    SweepSpec,
    run_cached_sweep,
)
from repro.metrics.stats import mean
from repro.quantum.technology import SUPERCONDUCTING
from repro.scenarios.build import run_campaign
from repro.strategies.vqpu import VQPUStrategy


def _tenant_apps(
    count: int,
    classical_phase_seconds: float,
    iterations: int,
    shots: int,
) -> List:
    return [
        standard_hybrid_app(
            SUPERCONDUCTING,
            iterations=iterations,
            classical_phase_seconds=classical_phase_seconds,
            classical_nodes=2,
            shots=shots,
            name=f"tenant-{index}",
        )
        for index in range(count)
    ]


def _run_point(params: Dict[str, Any], seed: int) -> Dict[str, float]:
    """One V-sweep cell: a fresh multi-tenant campaign."""
    tenants = params["tenants"]
    v = params["vqpus"]
    quantum_dominated = params["case"] == "quantum"
    apps = _tenant_apps(
        tenants,
        classical_phase_seconds=5.0 if quantum_dominated else 120.0,
        iterations=params["iterations"],
        shots=20000 if quantum_dominated else 1000,
    )
    records, env = run_campaign(
        VQPUStrategy(),
        apps,
        scenario=campaign_scenario(
            SUPERCONDUCTING,
            classical_nodes=4 * tenants,
            vqpus_per_qpu=v,
            seed=seed,
            name=f"fig3-{params['case']}-v{v}",
        ),
    )
    turnarounds = [r.turnaround for r in records if r.turnaround]
    makespan = max(
        r.end_time for r in records if r.end_time is not None
    ) - min(r.submit_time for r in records)
    qpu = env.primary_qpu()
    busy_fraction = qpu.busy.time_average(makespan)
    interleave_waits = [
        wait for r in records for wait in r.quantum_access_waits
    ]
    kernel_time = mean(
        [
            r.qpu_busy_seconds / max(len(r.quantum_access_waits), 1)
            for r in records
        ]
    )
    bound = (v - 1) * max(
        (
            r.qpu_busy_seconds / max(len(r.quantum_access_waits), 1)
            for r in records
        ),
        default=0.0,
    )
    return {
        "makespan": makespan,
        "mean_turnaround": mean(turnarounds),
        "busy_fraction": busy_fraction,
        "max_wait": max(interleave_waits, default=0.0),
        "mean_wait": mean(interleave_waits),
        "bound": bound,
        "kernel_time": kernel_time,
    }


def sweep_spec(
    seed: int = 0,
    tenants: int = 8,
    iterations: int = 4,
    vqpu_counts: tuple = (1, 2, 4, 8),
) -> SweepSpec:
    """Classical-dominated V sweep plus the quantum-dominated caveat pair."""
    points = [
        {"case": "classical", "vqpus": v} for v in vqpu_counts
    ] + [
        {"case": "quantum", "vqpus": v} for v in (1, max(vqpu_counts))
    ]
    return SweepSpec(
        experiment_id="E4",
        explicit=points,
        constants={"tenants": tenants, "iterations": iterations},
        base_seed=seed,
        seed_mode="shared",
    )


def run(
    seed: int = 0,
    tenants: int = 8,
    iterations: int = 4,
    vqpu_counts: tuple = (1, 2, 4, 8),
    **sweep_options: Any,
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="E4",
        title="Virtual QPUs: multitenant temporal interleaving (Fig 3)",
        description=(
            "N tenants with classical-dominated hybrid apps share one "
            "physical superconducting QPU through V virtual QPU gres "
            "units.  V=1 reproduces exclusive access; increasing V "
            "interleaves tenants on the device."
        ),
        parameters={
            "tenants": tenants,
            "iterations": iterations,
            "seed": seed,
        },
    )

    sweep_result = run_cached_sweep(
        sweep_spec(
            seed=seed,
            tenants=tenants,
            iterations=iterations,
            vqpu_counts=vqpu_counts,
        ),
        _run_point,
        **sweep_options,
    )
    if attach_sweep_failures(result, sweep_result):
        return result
    # Classical-dominated tenants: 120 s classical phases, ~3 s kernels.
    rows = []
    sweep: Dict[int, Dict[str, float]] = {}
    caveat_rows = []
    caveat: Dict[int, float] = {}
    kernel_times: List[float] = []
    for point, metrics in zip(sweep_result.points, sweep_result.values):
        v = point.params["vqpus"]
        if point.params["case"] == "quantum":
            caveat[v] = metrics["makespan"]
            caveat_rows.append([v, round(metrics["makespan"], 1)])
            continue
        sweep[v] = metrics
        kernel_times.append(metrics["kernel_time"])
        rows.append(
            [
                v,
                round(metrics["makespan"], 1),
                round(metrics["mean_turnaround"], 1),
                round(metrics["busy_fraction"], 4),
                round(metrics["mean_wait"], 2),
                round(metrics["max_wait"], 2),
                round(metrics["bound"], 2),
            ]
        )
    # The slack term of the delay-bound check uses the kernel time of
    # the last classical-dominated cell (largest V), as measured.
    kernel_time = kernel_times[-1]
    result.add_table(
        f"VQPU sweep: {tenants} classical-dominated tenants, 1 physical QPU",
        [
            "VQPUs",
            "makespan_s",
            "mean_turnaround_s",
            "qpu_busy_fraction",
            "mean_kernel_wait_s",
            "max_kernel_wait_s",
            "(V-1)*task bound_s",
        ],
        rows,
    )

    v_min, v_max = min(vqpu_counts), max(vqpu_counts)
    result.check(
        "virtualisation shortens the campaign: makespan at V=max is "
        "well below exclusive access (V=1)",
        sweep[v_max]["makespan"] < 0.5 * sweep[v_min]["makespan"],
        detail=(
            f"{sweep[v_max]['makespan']:.0f}s vs "
            f"{sweep[v_min]['makespan']:.0f}s"
        ),
    )
    result.check(
        "physical QPU utilisation rises with the VQPU count",
        sweep[v_max]["busy_fraction"] > sweep[v_min]["busy_fraction"],
        detail=(
            f"{sweep[v_min]['busy_fraction']:.4f} -> "
            f"{sweep[v_max]['busy_fraction']:.4f}"
        ),
    )
    bounded = all(
        sweep[v]["max_wait"]
        <= max(1.25 * sweep[v]["bound"], 2.0 * kernel_time)
        for v in vqpu_counts
        if v > 1
    )
    result.check(
        "per-request interleaving delay stays bounded by the number of "
        "VQPUs ((V-1) x task time, with slack for calibration)",
        bounded,
        detail=", ".join(
            f"V={v}: max {sweep[v]['max_wait']:.1f}s vs bound "
            f"{sweep[v]['bound']:.1f}s"
            for v in vqpu_counts
            if v > 1
        ),
    )

    # Marginal-gains caveat: quantum-dominated tenants (short classical
    # prep, heavy kernels) barely benefit from more VQPUs.
    result.add_table(
        "Marginal gains for quantum-dominated tenants "
        "(5 s classical prep, 20000-shot kernels)",
        ["VQPUs", "makespan_s"],
        caveat_rows,
    )
    classical_speedup = sweep[v_min]["makespan"] / sweep[v_max]["makespan"]
    quantum_speedup = caveat[1] / caveat[max(vqpu_counts)]
    result.check(
        "gains are marginal when the quantum phase is comparable to or "
        "longer than the classical one (speedup far below the "
        "classical-dominated case)",
        quantum_speedup < 0.5 * classical_speedup
        and quantum_speedup < 1.5,
        detail=(
            f"speedup {quantum_speedup:.2f}x (quantum-dominated) vs "
            f"{classical_speedup:.2f}x (classical-dominated)"
        ),
    )
    return result
