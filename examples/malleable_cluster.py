#!/usr/bin/env python
"""A malleable hybrid job on a busy cluster (paper Fig 4).

A saturated classical partition makes every extra queue entry
expensive.  The malleable job queues once, shrinks to a single node
while its kernels run on the QPU (returning nodes to the backfill
scheduler), and grows back afterwards — the scheduler grants regrowth
ahead of new jobs.  Compared against a workflow, which re-queues at
every step.

Environment knobs (for quick smoke runs): ``REPRO_EXAMPLE_HORIZON``
caps the background horizon.

Run with::

    python examples/malleable_cluster.py
"""

import os

from repro.metrics.report import render_table
from repro.quantum import Circuit
from repro.scenarios import (
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    run_campaign,
)
from repro.strategies import (
    CoScheduleStrategy,
    MalleableStrategy,
    WorkflowStrategy,
    vqe_like,
)

BACKGROUND_RHO = 1.15     # offered load on the classical partition
WARMUP = 3600.0           # let the queue build before submitting
HORIZON = float(os.environ.get("REPRO_EXAMPLE_HORIZON", 8 * 3600.0))


def make_app():
    return vqe_like(
        iterations=5,
        classical_work=300.0 * 8,
        circuit=Circuit(num_qubits=12, depth=100, geometry="g0"),
        shots=1000,
        classical_nodes=8,
        min_classical_nodes=1,
        name="malleable-demo",
    )


def main() -> None:
    rows = []
    for strategy in (
        CoScheduleStrategy(),
        WorkflowStrategy(),
        MalleableStrategy(reconfiguration_cost=5.0),
    ):
        spec = ScenarioSpec(
            name="malleable-demo",
            topology=TopologySpec(classical_nodes=32),
            workload=WorkloadSpec(
                background_rho=BACKGROUND_RHO, horizon=HORIZON
            ),
            seed=0,
        )
        [record], _env = run_campaign(
            strategy, [make_app()], spec, submit_times=[WARMUP]
        )
        grow_waits = record.details.get("grow_waits_s", [])
        rows.append(
            [
                record.strategy,
                f"{record.turnaround:.0f}",
                len(record.queue_waits),
                f"{record.total_queue_wait:.0f}",
                record.details.get("resizes", 0),
                f"{sum(grow_waits):.0f}" if grow_waits else "-",
                record.details.get("final_state", "?"),
            ]
        )

    print(
        render_table(
            [
                "strategy",
                "turnaround_s",
                "queue entries",
                "queue_wait_s",
                "resizes",
                "grow_wait_s",
                "state",
            ],
            rows,
            title=(
                f"Hybrid job on a saturated cluster "
                f"(offered load {BACKGROUND_RHO:.2f})"
            ),
        )
    )
    print()
    print(
        "The malleable job pays the queue once and renegotiates "
        "resources in place;\nthe workflow re-queues at every step.  "
        "The malleable price is visible too:\nregrowth after a quantum "
        "phase competes with the saturated queue (grow_wait_s)."
    )


if __name__ == "__main__":
    main()
