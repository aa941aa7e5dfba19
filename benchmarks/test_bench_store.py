"""Result-store benchmark: 10^4-point columnar metric reads.

A 10,000-point grid is written through the store's durable point
path (one committed WAL transaction per point — the crash-safety
unit), finalized into columnar npz shards, and then one metric is
read across the whole grid.  The read must touch only that metric's
npz members: ``pickle.loads``/``pickle.load`` are monkeypatch-
forbidden for the duration of the column read and the store's
``unpickle`` counter must stay flat, so a regression back to
whole-dict deserialisation fails the benchmark, not just slows it.

Throughput is published to ``BENCH_<rev>.json`` as
``store_points_per_second`` (durable writes) and
``column_points_per_second`` (finalized reads) via ``bench_record``.

``test_bench_store_replay`` times the other read a finalized sweep
serves: a warm replay, every point's whole value through
``load_points`` (what a cached ``run_sweep`` asks for), with pickle
forbidden the same way.  It publishes ``replay_points_per_second``.
"""

import pickle
import statistics
import time

from repro.experiments.sweep import SweepSpec
from repro.metrics.report import render_table
from repro.store import ResultStore

#: Grid size: the ISSUE's 10^4-point scale for columnar reads.
POINTS = 10_000

#: Points per npz shard — large enough that a column read opens a
#: handful of zip archives, small enough to exercise stitching.
SHARD_POINTS = 1024


def _value(x: int):
    return {
        "y": x * 0.5,
        "n": x,
        "ok": x % 3 != 0,
        "seed_mod": (x * 7919) % 1000,
    }


def test_bench_store(run_once, bench_record, tmp_path, monkeypatch):
    spec = SweepSpec("bench-store", axes={"x": list(range(POINTS))})
    name = "bench_runner"

    with ResultStore(tmp_path / "store", code_version="bench") as store:
        points = spec.points()

        def write_finalize_read():
            t0 = time.perf_counter()
            for point in points:
                store.store_point(
                    spec, name, point, _value(point.params["x"])
                )
            t1 = time.perf_counter()
            shards = store.finalize_sweep(
                spec, name, shard_points=SHARD_POINTS
            )
            t2 = time.perf_counter()
            # The contract under test: a column read never deserialises
            # a per-point dict.  Forbid pickle outright while reading.
            unpickles_before = store.stats["unpickle"]
            with monkeypatch.context() as patched:
                patched.setattr(
                    pickle, "loads", _forbidden, raising=True
                )
                patched.setattr(
                    pickle, "load", _forbidden, raising=True
                )
                column = store.read_column(spec, name, "y")
            t3 = time.perf_counter()
            assert store.stats["unpickle"] == unpickles_before
            return shards, column, t1 - t0, t2 - t1, t3 - t2

        shards, column, write_s, finalize_s, read_s = run_once(
            write_finalize_read
        )

        values = column.tolist()
        assert len(values) == POINTS
        assert values == [x * 0.5 for x in range(POINTS)]
        assert shards == (POINTS + SHARD_POINTS - 1) // SHARD_POINTS
        report = store.verify()
        assert report["ok"], report

    write_rate = POINTS / max(write_s, 1e-9)
    read_rate = POINTS / max(read_s, 1e-9)
    print()
    print(
        render_table(
            ["phase", "wall_s", "points/s"],
            [
                ["durable writes", round(write_s, 3), round(write_rate)],
                ["finalize", round(finalize_s, 3), ""],
                ["column read", round(read_s, 4), round(read_rate)],
            ],
            title=(
                f"Result store: {POINTS} points, "
                f"{shards} shards of {SHARD_POINTS}"
            ),
        )
    )
    bench_record(
        points=POINTS,
        shard_points=SHARD_POINTS,
        write_s=round(write_s, 4),
        finalize_s=round(finalize_s, 4),
        column_read_s=round(read_s, 5),
        store_points_per_second=round(write_rate),
        column_points_per_second=round(read_rate),
        unpickled_during_read=0,
    )
    # Reading one metric off 10^4 points must be far cheaper than
    # writing them; this wall is intentionally loose (CI noise) while
    # still catching a fallback to per-point payload loads.
    assert read_s < write_s, (read_s, write_s)


#: Replay grid size and the warm passes timed over it.
REPLAY_POINTS = 4096
REPLAY_PASSES = 15


def _replay_value(x: int):
    """Scalars plus a small JSON residual, like a scenario point's."""
    return {**_value(x), "policy": "easy", "counts": {"done": x % 17}}


def test_bench_store_replay(run_once, bench_record, tmp_path, monkeypatch):
    spec = SweepSpec("bench-replay", axes={"x": list(range(REPLAY_POINTS))})
    name = "bench_runner"
    expected = [_replay_value(x) for x in range(REPLAY_POINTS)]

    with ResultStore(tmp_path / "store", code_version="bench") as store:
        points = spec.points()
        for point in points:
            store.store_point(
                spec, name, point, _replay_value(point.params["x"])
            )
        store.finalize_sweep(spec, name, shard_points=SHARD_POINTS)
        assert store.load_points(spec, name, points[:1])[0][0]  # cold open

        def warm_passes():
            seconds = []
            unpickles_before = store.stats["unpickle"]
            with monkeypatch.context() as patched:
                patched.setattr(pickle, "loads", _forbidden, raising=True)
                patched.setattr(pickle, "load", _forbidden, raising=True)
                for _ in range(REPLAY_PASSES):
                    t0 = time.perf_counter()
                    loaded = store.load_points(spec, name, points)
                    seconds.append(time.perf_counter() - t0)
            assert store.stats["unpickle"] == unpickles_before
            return loaded, seconds

        loaded, seconds = run_once(warm_passes)

    assert [value for _hit, value in loaded] == expected
    pass_s = statistics.median(seconds)
    rate = REPLAY_POINTS / max(pass_s, 1e-9)
    print()
    print(
        render_table(
            ["passes", "median pass_s", "points/s"],
            [[REPLAY_PASSES, round(pass_s, 4), round(rate)]],
            title=(
                f"Result store warm replay: {REPLAY_POINTS} points, "
                f"shards of {SHARD_POINTS}"
            ),
        )
    )
    bench_record(
        points=REPLAY_POINTS,
        shard_points=SHARD_POINTS,
        passes=REPLAY_PASSES,
        replay_pass_s=round(pass_s, 5),
        replay_points_per_second=round(rate),
        unpickled_during_replay=0,
    )


def _forbidden(*args, **kwargs):
    raise AssertionError(
        "pickle deserialisation during a columnar metric read or replay"
    )
