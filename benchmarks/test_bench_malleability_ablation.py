"""A2 — malleability reconfiguration-cost sensitivity.

The malleable strategy pays ``2 x quantum_phases x cost`` of
reconfiguration per run.  Sweeping the cost shows the break-even
against exclusive co-scheduling: cheap reconfiguration is pure win on
held node-seconds; expensive reconfiguration erodes the turnaround
until co-scheduling is faster (the paper's "significant modifications
to application code" caveat made quantitative).
"""

from repro.experiments.common import (
    campaign_scenario,
    run_campaign,
    standard_hybrid_app,
)
from repro.metrics.report import render_series
from repro.quantum.technology import SUPERCONDUCTING
from repro.strategies.coschedule import CoScheduleStrategy
from repro.strategies.malleability import MalleableStrategy

COSTS = (0.0, 5.0, 30.0, 120.0)


def _sweep(seed: int = 0):
    app = standard_hybrid_app(
        SUPERCONDUCTING,
        iterations=4,
        classical_phase_seconds=120.0,
        classical_nodes=8,
        min_classical_nodes=1,
    )
    scenario = campaign_scenario(SUPERCONDUCTING, seed=seed)
    co_records, _ = run_campaign(CoScheduleStrategy(), [app], scenario)
    baseline = co_records[0].turnaround
    turnarounds = []
    held = []
    for cost in COSTS:
        records, _ = run_campaign(
            MalleableStrategy(reconfiguration_cost=cost),
            [app],
            scenario,
        )
        turnarounds.append(records[0].turnaround)
        held.append(records[0].classical_held_node_seconds)
    return baseline, turnarounds, held


def test_bench_malleability_ablation(run_once):
    baseline, turnarounds, held = run_once(_sweep, seed=0)
    print()
    print(
        render_series(
            "reconfig_cost_s",
            ["malleable_turnaround_s", "held_node_s"],
            list(COSTS),
            [turnarounds, held],
            title=(
                "A2: reconfiguration-cost sensitivity "
                f"(coschedule baseline {baseline:.0f}s)"
            ),
        )
    )
    # Turnaround grows monotonically with the cost.
    assert turnarounds == sorted(turnarounds)
    # Zero-cost malleability matches the rigid baseline on turnaround.
    assert abs(turnarounds[0] - baseline) < 1.0
    # The expensive end is strictly worse than the rigid baseline.
    assert turnarounds[-1] > baseline
    # Held node-seconds grow exactly with the time spent reconfiguring:
    # each quantum phase pays the cost once at min nodes (post-shrink)
    # and once at full nodes (post-grow).
    quantum_phases = 4
    min_nodes, full_nodes = 1, 8
    expected_delta = (
        (min_nodes + full_nodes) * COSTS[-1] * quantum_phases
    )
    measured_delta = held[-1] - held[0]
    assert abs(measured_delta - expected_delta) < 0.1 * expected_delta, (
        measured_delta,
        expected_delta,
    )
