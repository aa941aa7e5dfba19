"""A4 — elastic QPU attach/detach vs the paper's three strategies.

The extension strategy (single job, QPU component attached per quantum
phase) is benchmarked against VQPU, workflow and co-scheduling on a
multi-tenant trapped-ion campaign with a production 30 s scheduler
cycle.  The honest placement this asserts:

- elastic holds the QPU only while kernels run (efficiency ~ 1, like a
  workflow, unlike VQPU/co-scheduling which hold their unit for the
  whole job);
- elastic queues once (like malleability), so it beats the workflow's
  per-step queueing when steps outnumber quantum phases;
- VQPU keeps the turnaround edge because attach/detach pays a
  scheduler negotiation per quantum phase.
"""

from repro.experiments.common import (
    campaign_scenario,
    run_campaign,
    standard_hybrid_app,
)
from repro.metrics.report import render_table
from repro.metrics.stats import mean
from repro.quantum.technology import TRAPPED_ION
from repro.strategies.coschedule import CoScheduleStrategy
from repro.strategies.elastic import ElasticQPUStrategy
from repro.strategies.vqpu import VQPUStrategy
from repro.strategies.workflow import WorkflowStrategy

TENANTS = 4
CYCLE = 30.0


def _run_all(seed: int = 0):
    outcomes = {}
    for name, strategy, vqpus in (
        ("coschedule", CoScheduleStrategy(), 1),
        ("workflow", WorkflowStrategy(), 1),
        ("vqpu", VQPUStrategy(), TENANTS),
        ("elastic", ElasticQPUStrategy(), 1),
    ):
        apps = [
            standard_hybrid_app(
                TRAPPED_ION,
                iterations=3,
                classical_phase_seconds=120.0,
                classical_nodes=4,
                shots=500,
                name=f"tenant-{index}",
            )
            for index in range(TENANTS)
        ]
        records, env = run_campaign(
            strategy,
            apps,
            campaign_scenario(
                TRAPPED_ION,
                classical_nodes=8 * TENANTS,
                vqpus_per_qpu=vqpus,
                scheduling_cycle=CYCLE,
                seed=seed,
            ),
        )
        outcomes[name] = {
            "turnaround": mean([r.turnaround for r in records]),
            "qpu_eff": mean([r.qpu_efficiency for r in records]),
            "queue_entries": mean(
                [len(r.queue_waits) for r in records]
            ),
        }
    return outcomes


def test_bench_elastic_ablation(run_once):
    outcomes = run_once(_run_all, seed=0)
    print()
    rows = [
        [
            name,
            f"{data['turnaround']:.0f}",
            f"{data['qpu_eff']:.3f}",
            f"{data['queue_entries']:.0f}",
        ]
        for name, data in outcomes.items()
    ]
    print(
        render_table(
            ["strategy", "mean_turnaround_s", "qpu_eff", "queue entries"],
            rows,
            title=(
                f"A4: elastic attach/detach, {TENANTS} trapped-ion "
                f"tenants, {CYCLE:.0f}s cycle"
            ),
        )
    )
    # QPU held only while used.
    assert outcomes["elastic"]["qpu_eff"] > 0.9
    assert outcomes["coschedule"]["qpu_eff"] < 0.5
    # One queue entry, like malleability.
    assert outcomes["elastic"]["queue_entries"] == 1
    # Beats the workflow's repeated queueing on this workload shape...
    assert (
        outcomes["elastic"]["turnaround"]
        < outcomes["workflow"]["turnaround"]
    )
    # ...but VQPU keeps the turnaround edge (negotiation per phase).
    assert (
        outcomes["vqpu"]["turnaround"]
        <= outcomes["elastic"]["turnaround"]
    )
    # Everything beats serialised exclusive co-scheduling.
    assert (
        outcomes["elastic"]["turnaround"]
        < outcomes["coschedule"]["turnaround"]
    )
