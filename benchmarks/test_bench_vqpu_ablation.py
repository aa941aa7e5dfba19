"""A1 — VQPU-count ablation: where does virtualisation saturate?

Fine sweep of the VQPU count for a fixed tenant population.  The
makespan must fall monotonically with V and saturate once V reaches the
tenant count: beyond it there is nobody left to interleave, so extra
virtual units buy nothing (the delay-bound knob, not a throughput knob).

The grid runs as a :class:`~repro.experiments.sweep.SweepSpec` through
the parallel sweep engine (``REPRO_SWEEP_WORKERS`` fans it out).
"""

from repro.experiments.common import (
    campaign_scenario,
    run_campaign,
    standard_hybrid_app,
)
from repro.experiments.sweep import SweepSpec, run_cached_sweep
from repro.metrics.report import render_series
from repro.quantum.technology import SUPERCONDUCTING
from repro.strategies.vqpu import VQPUStrategy

TENANTS = 6
SWEEP = (1, 2, 3, 6, 12)


def _point(params, seed):
    apps = [
        standard_hybrid_app(
            SUPERCONDUCTING,
            iterations=3,
            classical_phase_seconds=90.0,
            classical_nodes=2,
            name=f"tenant-{index}",
        )
        for index in range(params["tenants"])
    ]
    records, env = run_campaign(
        VQPUStrategy(),
        apps,
        campaign_scenario(
            SUPERCONDUCTING,
            classical_nodes=4 * params["tenants"],
            vqpus_per_qpu=params["vqpus"],
            seed=seed,
        ),
    )
    ends = [r.end_time for r in records if r.end_time is not None]
    starts = [r.submit_time for r in records]
    return {
        "makespan": max(ends) - min(starts),
        "busy": env.primary_qpu().busy.time_average(),
    }


def _sweep(seed: int = 0):
    spec = SweepSpec(
        experiment_id="A1-vqpu-ablation",
        axes={"vqpus": list(SWEEP)},
        constants={"tenants": TENANTS},
        base_seed=seed,
        seed_mode="shared",
    )
    values = run_cached_sweep(spec, _point).values
    makespans = [value["makespan"] for value in values]
    busy = [value["busy"] for value in values]
    return makespans, busy


def test_bench_vqpu_ablation(run_once):
    makespans, busy = run_once(_sweep, seed=0)
    print()
    print(
        render_series(
            "VQPUs",
            ["makespan_s", "qpu_busy_fraction"],
            list(SWEEP),
            [makespans, busy],
            title=f"A1: VQPU-count ablation ({TENANTS} tenants)",
        )
    )
    # Monotone non-increasing makespan in V.
    assert all(
        later <= earlier * 1.001
        for earlier, later in zip(makespans, makespans[1:])
    ), makespans
    # Saturation: V beyond the tenant count buys (almost) nothing.
    at_tenants = makespans[SWEEP.index(TENANTS)]
    beyond = makespans[SWEEP.index(2 * TENANTS)]
    assert beyond >= at_tenants * 0.95, (at_tenants, beyond)
    # Virtualisation itself is worth a lot up to the tenant count.
    assert at_tenants < makespans[0] * 0.5
