"""Batched point lookups: ``load_points`` is ``load_point`` for many.

``run_sweep`` asks the store for a whole spec's points at once.  The
batch must answer exactly what one ``load_point`` per point answers —
the same hits, values of the same exact types, the same ``stats`` and
the same repairs of damaged rows — while a warm sweep issues one
point ``SELECT`` per 500 keys instead of one per point.
"""

import shutil

from repro.experiments.sweep import SweepSpec, run_sweep, runner_name
from repro.store import ResultStore

from tests.store.conftest import grid_spec


def _scalars(x):
    return {
        "y": x * 0.5, "n": x, "flag": x % 2 == 0, "none": None,
        "nan": float("nan"),
    }


#: Point values by ``x``; with two points per shard, shard k holds
#: x = 2k and 2k + 1.
VALUES = {
    0: _scalars(0),                                   # columnar
    1: _scalars(1),                                   # columnar
    2: {**_scalars(2), "label": "two"},               # + JSON residual
    3: {**_scalars(3), "pair": (3, "t")},             # + pickle residual
    4: _scalars(4),                                   # shard row gone
    5: _scalars(5),                                   # shard row gone
    6: _scalars(6),                                   # shard quarantined
    7: _scalars(7),                                   # shard quarantined
    8: [8, 2.5, "s"],                                 # inline JSON
    9: ("tuple", 9),                                  # inline pickle
    10: _scalars(10),                                 # torn inline JSON
    11: {**_scalars(11), "label": "eleven"},          # torn residual
    12: _scalars(12),                                 # never stored
}


def _damaged_store(directory):
    """A finalized 13-point sweep with one row of every kind, and every
    kind of damage ``load_point`` repairs."""
    spec = grid_spec(len(VALUES), "batched")
    points = spec.points()
    store = ResultStore(directory, code_version="pinned")
    with store:
        for point in points:
            store.store_point(spec, "r", point, VALUES[point.params["x"]])
        store.finalize_sweep(spec, "r", shard_points=2)
        conn = store.db.connection()

        def key(x):
            return f"{points[x].key()}:seed{points[x].seed}"

        # x=10 back to an inline JSON row, then torn; x=11's residual torn.
        store.store_point(spec, "r", points[10], VALUES[10])
        for x in (10, 11):
            conn.execute(
                "UPDATE points SET payload = ? WHERE point_key = ?",
                (b'{"torn', key(x)),
            )
        conn.execute("DELETE FROM points WHERE point_key = ?", (key(12),))
        conn.execute(
            "DELETE FROM shards WHERE id = (SELECT shard_id FROM points"
            " WHERE point_key = ?)",
            (key(4),),
        )
        [filename] = conn.execute(
            "SELECT s.filename FROM shards AS s JOIN points AS p"
            " ON p.shard_id = s.id WHERE p.point_key = ?",
            (key(6),),
        ).fetchone()
        (store.db.shards_dir / filename).write_bytes(b"\x89NOT-AN-NPZ" * 64)
    return spec


def _point_ids(store):
    return [
        row[0] for row in store.db.connection().execute(
            "SELECT id FROM points ORDER BY id"
        )
    ]


class TestLoadPointsMatchesLoadPoint:
    def test_values_types_stats_and_repairs_match(self, tmp_path):
        spec = _damaged_store(tmp_path / "batch")
        shutil.copytree(tmp_path / "batch", tmp_path / "single")
        points = spec.points()
        with ResultStore(tmp_path / "batch", code_version="pinned") as batch:
            with ResultStore(
                tmp_path / "single", code_version="pinned"
            ) as single:
                got = batch.load_points(spec, "r", points)
                want = [single.load_point(spec, "r", p) for p in points]
                # repr tells 1 from 1.0 from True and a tuple from a
                # list, and prints NaN the same on both sides.
                assert [repr(entry) for entry in got] == [
                    repr(entry) for entry in want
                ]
                assert batch.stats == single.stats
                assert _point_ids(batch) == _point_ids(single)
                quarantined = [
                    sorted(path.name for path in glob) for glob in (
                        batch.db.shards_dir.glob("*.corrupt"),
                        single.db.shards_dir.glob("*.corrupt"),
                    )
                ]
                assert quarantined[0] == quarantined[1] != []
        hits = [hit for hit, _value in got]
        assert hits == [True] * 4 + [False] * 4 + [True] * 2 + [False] * 3
        for x in (0, 1, 2, 3):
            value = got[x][1]
            assert type(value["y"]) is float and type(value["n"]) is int
            assert type(value["flag"]) is bool and value["none"] is None
        assert got[2][1]["label"] == "two"
        assert got[3][1]["pair"] == (3, "t")
        assert got[8][1] == [8, 2.5, "s"]
        assert got[9][1] == ("tuple", 9)

    def test_torn_rows_are_deleted(self, tmp_path):
        spec = _damaged_store(tmp_path / "store")
        points = spec.points()
        with ResultStore(tmp_path / "store", code_version="pinned") as st:
            before = len(_point_ids(st))
            st.load_points(spec, "r", points)
            # Rows 10 and 11 (torn) and 6, 7 (quarantined shard) went.
            assert len(_point_ids(st)) == before - 4
            decodes = dict(st.stats)
            st.load_points(spec, "r", [points[10], points[11]])
            assert dict(st.stats) == decodes  # plain misses now

    def test_repeated_torn_key_is_decoded_once(self, store):
        spec = SweepSpec("dup", explicit=[{"x": 1}, {"x": 1}])
        first, again = spec.points()
        store.store_point(spec, "r", first, {"y": 1.0})
        store.db.connection().execute("UPDATE points SET payload = x'00'")
        assert store.load_points(spec, "r", [first, again]) == [
            (False, None), (False, None),
        ]
        # One lookup per point would have found the row gone the second
        # time, without decoding it again.
        assert store.stats["json_decode"] == 1
        assert _point_ids(store) == []

    def test_load_point_is_a_batch_of_one(self, store):
        spec = grid_spec(3, "one")
        point = spec.points()[1]
        store.store_point(spec, "r", point, {"y": 1.5})
        assert store.load_point(spec, "r", point) == (True, {"y": 1.5})
        assert store.load_point(spec, "r", spec.points()[0]) == (False, None)
        assert store.load_points(spec, "r", []) == []


def _count_point_selects(store, action):
    """Statements that select from ``points`` while ``action`` runs."""
    statements = []
    conn = store.db.connection()
    conn.set_trace_callback(statements.append)
    try:
        action()
    finally:
        conn.set_trace_callback(None)
    return sum(
        1 for sql in statements
        if sql.lstrip().upper().startswith("SELECT") and "FROM points" in sql
    )


def constant_runner(params, seed):
    return {"y": 1.0, "n": params["x"]}


class TestWarmSweepLookups:
    def test_one_select_per_500_points(self, store):
        spec = grid_spec(1200, "warm-1200")
        run_sweep(spec, constant_runner, workers=1, cache=store.sweep_cache())
        results = []
        selects = _count_point_selects(store, lambda: results.append(
            run_sweep(spec, constant_runner, workers=1,
                      cache=store.sweep_cache())
        ))
        assert results[0].cache_hits == 1200
        assert selects == 3

    def test_finalized_warm_sweep_replays_the_cold_values(self, store):
        spec = grid_spec(7, "warm-columnar")
        cold = run_sweep(spec, constant_runner, cache=store.sweep_cache())
        store.finalize_sweep(spec, runner_name(constant_runner),
                             shard_points=3)
        warm = run_sweep(spec, constant_runner, cache=store.sweep_cache())
        assert warm.cache_hits == 7
        # Columnar points come back with their metrics in name order.
        assert [repr(sorted(value.items())) for value in warm.values] == [
            repr(sorted(value.items())) for value in cold.values
        ]
        assert store.stats["column_point"] == 7
