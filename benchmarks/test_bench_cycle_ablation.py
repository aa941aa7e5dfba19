"""A5 — scheduling-cycle-length sensitivity of the strategies.

The scheduler cycle is the hidden constant in every "per step" or
"per negotiation" overhead of the paper's strategies: workflows pay it
per *step*, elastic per *quantum phase*, VQPU and co-scheduling once.
Sweeping it makes the sensitivity explicit — and shows why per-step
queueing of second-scale kernels is hopeless on a 60 s-cycle system.

The cycle x strategy grid runs as a
:class:`~repro.experiments.sweep.SweepSpec` through the parallel sweep
engine (``REPRO_SWEEP_WORKERS`` fans it out).
"""

from repro.experiments.common import (
    campaign_scenario,
    run_campaign,
    standard_hybrid_app,
)
from repro.experiments.sweep import SweepSpec, run_sweep, sweep_cache
from repro.metrics.report import render_series
from repro.quantum.technology import SUPERCONDUCTING
from repro.strategies.coschedule import CoScheduleStrategy
from repro.strategies.elastic import ElasticQPUStrategy
from repro.strategies.workflow import WorkflowStrategy

CYCLES = (0.0, 10.0, 30.0, 60.0)
STRATEGIES = (
    ("coschedule", CoScheduleStrategy),
    ("workflow", WorkflowStrategy),
    ("elastic", ElasticQPUStrategy),
)


def _point(params, seed):
    strategy_class = dict(STRATEGIES)[params["strategy"]]
    app = standard_hybrid_app(
        SUPERCONDUCTING,
        iterations=4,
        classical_phase_seconds=60.0,
        classical_nodes=4,
        shots=1000,
    )
    records, _ = run_campaign(
        strategy_class(),
        [app],
        campaign_scenario(
            SUPERCONDUCTING,
            classical_nodes=8,
            scheduling_cycle=params["cycle"],
            seed=seed,
        ),
    )
    return records[0].turnaround


def _sweep(seed: int = 0):
    spec = SweepSpec(
        experiment_id="A5-cycle-ablation",
        axes={
            "cycle": list(CYCLES),
            "strategy": [name for name, _ in STRATEGIES],
        },
        base_seed=seed,
        seed_mode="shared",
    )
    results = {name: [] for name, _ in STRATEGIES}
    run_sweep(
        spec,
        _point,
        cache=sweep_cache(None),
        on_result=lambda point, value: results[
            point.params["strategy"]
        ].append(value),
    )
    return results


def test_bench_cycle_ablation(run_once):
    results = run_once(_sweep, seed=0)
    print()
    print(
        render_series(
            "cycle_s",
            [name for name, _ in STRATEGIES],
            list(CYCLES),
            [results[name] for name, _ in STRATEGIES],
            title="A5: turnaround vs scheduler cycle (one tenant, idle)",
        )
    )
    zero = CYCLES.index(0.0)
    last = len(CYCLES) - 1
    co_penalty = results["coschedule"][last] - results["coschedule"][zero]
    wf_penalty = results["workflow"][last] - results["workflow"][zero]
    el_penalty = results["elastic"][last] - results["elastic"][zero]
    # Co-scheduling pays ~one cycle total; workflows pay per step and
    # must be hit hardest; elastic sits strictly between.
    assert co_penalty <= CYCLES[-1] + 1.0
    assert wf_penalty > el_penalty > co_penalty, (
        co_penalty,
        el_penalty,
        wf_penalty,
    )
    # Workflow's penalty scales with the step count (8 steps here):
    # at least half a cycle per step on average.
    assert wf_penalty >= 8 * CYCLES[-1] * 0.5
