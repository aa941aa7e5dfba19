"""A3 — backfill-policy ablation under a hybrid workload mix.

Replays the same synthetic classical trace plus a set of hybrid
co-scheduled jobs under FIFO, EASY and conservative backfill, and
compares mean queue wait and classical utilisation.  Backfill must not
lose to strict FIFO — the standard result, retested here because hybrid
hetjobs (which must atomically co-allocate two partitions) are exactly
the jobs FIFO head-blocking punishes.
"""

from repro.experiments.common import standard_hybrid_app
from repro.metrics.report import render_series
from repro.metrics.stats import mean
from repro.quantum.technology import SUPERCONDUCTING
from repro.scenarios.build import build
from repro.scenarios.spec import PolicySpec, ScenarioSpec, TopologySpec
from repro.strategies.coschedule import CoScheduleStrategy
from repro.workloads.distributions import LogUniform, PowerOfTwoNodes
from repro.workloads.generator import CampaignDriver, submit_trace
from repro.workloads.swf import synthesise_trace

POLICIES = ("fifo", "easy", "conservative")


def _run_policy(policy: str, seed: int):
    env = build(
        ScenarioSpec(
            topology=TopologySpec(classical_nodes=32),
            policy=PolicySpec(policy=policy),
            seed=seed,
        )
    )
    trace = synthesise_trace(
        env.streams.stream("trace"),
        job_count=60,
        mean_interarrival=115.0,
        runtimes=LogUniform(120.0, 1800.0),
        sizes=PowerOfTwoNodes(2, 8),
    )
    trace_jobs = submit_trace(env, trace)
    driver = CampaignDriver(env, CoScheduleStrategy())
    apps = [
        standard_hybrid_app(
            SUPERCONDUCTING,
            iterations=3,
            classical_phase_seconds=120.0,
            classical_nodes=8,
            name=f"hybrid-{index}",
        )
        for index in range(4)
    ]
    driver.launch_all(apps, submit_times=[600.0 * i for i in range(4)])
    driver.collect()
    env.kernel.run()  # drain remaining trace jobs
    waits = [
        job.wait_time for job in trace_jobs if job.wait_time is not None
    ]
    return {
        "mean_wait": mean(waits),
        "utilisation": env.cluster.node_utilisation("classical"),
        "makespan": env.kernel.now,
    }


def _sweep(seed: int = 0):
    return {policy: _run_policy(policy, seed) for policy in POLICIES}


def test_bench_backfill_ablation(run_once):
    results = run_once(_sweep, seed=0)
    print()
    print(
        render_series(
            "policy",
            ["mean_wait_s", "classical_utilisation", "makespan_s"],
            list(POLICIES),
            [
                [results[p]["mean_wait"] for p in POLICIES],
                [results[p]["utilisation"] for p in POLICIES],
                [results[p]["makespan"] for p in POLICIES],
            ],
            title="A3: backfill policy ablation (trace + hybrid hetjobs)",
        )
    )
    # Backfilling never hurts the mean wait relative to strict FIFO.
    assert results["easy"]["mean_wait"] <= results["fifo"]["mean_wait"]
    assert (
        results["conservative"]["mean_wait"]
        <= results["fifo"]["mean_wait"] * 1.05
    )
    # All policies drain the full workload.
    for policy in POLICIES:
        assert results[policy]["makespan"] > 0
