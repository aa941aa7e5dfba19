"""Fault-tolerance overhead benchmark: what resilience costs.

Three runs of the same 200-point grid measure the layers separately:

1. baseline — the engine with the default policy (one attempt, no
   journal), i.e. the pre-resilience fast path;
2. guarded — retry policy + durable journal + chaos raising on ~10%
   of first attempts, the realistic campaign configuration;
3. crash recovery — a 4-worker pool with chaos worker deaths, timing
   the kill/rebuild/resubmit machinery end to end.

The acceptance assertions are the determinism contract (every
completed value byte-identical to the baseline) plus completion under
chaos; the measured walls and the guarded/baseline overhead ratio are
recorded in ``BENCH_<rev>.json`` as data.
"""

from repro.experiments.resilience import ChaosSpec, FailurePolicy
from repro.experiments.sweep import (
    SweepSpec,
    canonical_bytes,
    run_sweep,
    runner_name,
)
from repro.metrics.report import render_table
from repro.store import ResultStore

POINTS = 200


def _point(params, seed):
    """Cheap deterministic runner: the engine is what's being timed."""
    i = params["i"]
    return {"i": i, "value": (i * 2654435761 + seed) % (2**31)}


def _spec():
    return SweepSpec(
        experiment_id="bench-resilience",
        axes={"i": list(range(POINTS))},
        base_seed=7,
    )


def test_bench_resilience(run_once, bench_record, tmp_path):
    raise_every_tenth = ChaosSpec(
        plan={i: ("raise",) for i in range(0, POINTS, 10)}
    )
    die_plan = ChaosSpec(plan={40: ("die", "ok"), 140: ("die", "ok")})
    store = ResultStore(tmp_path / "journal", code_version="bench")

    def three_way():
        baseline = run_sweep(_spec(), _point, workers=1)
        guarded = run_sweep(
            _spec(),
            _point,
            workers=1,
            policy=FailurePolicy(max_attempts=3, on_error="collect"),
            chaos=raise_every_tenth,
            journal=store.run_journal(
                "bench-resilience", runner_name(_point)
            ),
            resume=False,
        )
        recovered = run_sweep(
            _spec(),
            _point,
            workers=4,
            policy=FailurePolicy(max_attempts=3, on_error="collect"),
            chaos=die_plan,
        )
        return baseline, guarded, recovered

    baseline, guarded, recovered = run_once(three_way)

    # Determinism contract: retries, journalling and worker-crash
    # recovery leave every completed value byte-identical.
    blob = canonical_bytes(baseline.values)
    assert canonical_bytes(guarded.values) == blob
    assert canonical_bytes(recovered.values) == blob
    assert guarded.ok_count == POINTS
    assert recovered.ok_count == POINTS
    assert sum(o.attempts for o in guarded.outcomes) == POINTS + 20

    overhead = guarded.wall_seconds / max(baseline.wall_seconds, 1e-9)
    print()
    print(
        render_table(
            ["mode", "wall_s"],
            [
                ["baseline serial", round(baseline.wall_seconds, 3)],
                [
                    "retries + journal + 10% chaos",
                    round(guarded.wall_seconds, 3),
                ],
                [
                    "4 workers, 2 worker deaths",
                    round(recovered.wall_seconds, 3),
                ],
            ],
            title=f"fault-tolerance overhead on {POINTS} points",
        )
    )
    bench_record(
        baseline_wall_s=round(baseline.wall_seconds, 6),
        guarded_wall_s=round(guarded.wall_seconds, 6),
        crash_recovery_wall_s=round(recovered.wall_seconds, 6),
        guarded_overhead_x=round(overhead, 3),
    )
