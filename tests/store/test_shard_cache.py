"""The per-handle decoded-shard cache and the finalize read scope.

Every shard read — ``load_point``, ``read_column``, ``results_rows``
and a re-finalize — goes through one :class:`~repro.store.columns.
ShardCache` keyed by the shard row's ``(id, created_at)``.  These
tests pin what it saves (no reopened shard on a warm read), what it
must not cost (a cold column read still touches one metric's members;
the byte bound holds) and the stale entry a bare shard id used to
serve once ids were reused.
"""

import pytest

from repro.errors import StoreCorruptError
from repro.experiments.sweep import run_sweep, runner_name
from repro.store import ResultStore
from repro.store import api as store_api
from repro.store import columns as col

from tests.store.conftest import grid_spec, scalar_runner


def negative_runner(params, seed):
    """Values no :func:`scalar_runner` point can have."""
    return {"y": -1000.0 - params["x"], "n": -params["x"]}


def _finalized(store, spec, runner=scalar_runner, shard_points=2):
    name = runner_name(runner)
    run_sweep(spec, runner, cache=store.sweep_cache())
    store.finalize_sweep(spec, name, shard_points=shard_points)
    return name


@pytest.fixture
def shard_reads(monkeypatch):
    """Record every shard open (by filename) and every zip member read."""
    log = {"opens": [], "members": []}
    real_open = col.open_shard

    class RecordingShard:
        def __init__(self, npz):
            self.npz = npz
            self.files = npz.files

        def __getitem__(self, member):
            log["members"].append(member)
            return self.npz[member]

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.npz.close()

    def open_shard(path):
        npz = real_open(path)
        log["opens"].append(path.name)
        return RecordingShard(npz)

    monkeypatch.setattr(col, "open_shard", open_shard)
    return log


class TestWarmReads:
    def test_second_read_column_opens_no_shard(self, store, shard_reads):
        spec = grid_spec(6, "warm-column")
        name = _finalized(store, spec)
        first = store.read_column(spec, name, "y").tolist()
        assert len(shard_reads["opens"]) == 3
        del shard_reads["opens"][:]
        assert store.read_column(spec, name, "y").tolist() == first
        assert shard_reads["opens"] == []

    def test_second_results_rows_opens_no_shard(self, store, shard_reads):
        spec = grid_spec(6, "warm-results")
        name = runner_name(scalar_runner)
        submission_id = store.submit("t", spec, name)
        record = store.claim_next_submission("w", submission_id=submission_id)
        assert record is not None
        store.run_claimed_submission(submission_id, scalar_runner, "w")
        del shard_reads["opens"][:]
        metrics = ["y", "n", "seed_mod"]
        first = store.results_rows(submission_id, metrics=metrics)
        # Three metrics, one open per shard (the sweep has one shard).
        assert len(shard_reads["opens"]) == 1
        assert store.results_rows(submission_id, metrics=metrics) == first
        assert len(shard_reads["opens"]) == 1

    def test_load_point_then_columns_open_each_shard_once(
        self, store, shard_reads
    ):
        spec = grid_spec(6, "warm-replay")
        name = _finalized(store, spec)
        for point in spec.points():
            hit, _value = store.load_point(spec, name, point)
            assert hit
        store.read_column(spec, name, "y")
        store.read_column(spec, name, "n")
        assert sorted(shard_reads["opens"]) == sorted(
            set(shard_reads["opens"])
        )
        assert len(shard_reads["opens"]) == 3

    def test_cold_read_column_reads_only_its_metric(
        self, store_dir, shard_reads
    ):
        spec = grid_spec(6, "cold-column")
        with ResultStore(store_dir, code_version="pinned") as writer:
            name = _finalized(writer, spec)
        del shard_reads["members"][:]
        with ResultStore(store_dir, code_version="pinned") as reader:
            reader.read_column(spec, name, "y")
        assert sorted(set(shard_reads["members"])) == ["f8:y", "i8:y", "k:y"]
        assert len(shard_reads["members"]) == 3 * 3  # three shards
        # A later read of another metric decodes just that one.
        del shard_reads["members"][:]
        with ResultStore(store_dir, code_version="pinned") as reader:
            reader.read_column(spec, name, "y")
            reader.read_column(spec, name, "n")
        assert shard_reads["members"].count("k:y") == 3
        assert shard_reads["members"].count("k:n") == 3
        assert "k:even" not in shard_reads["members"]

    def test_stats_keep_their_meaning_on_cache_hits(self, store):
        spec = grid_spec(4, "warm-stats")
        name = _finalized(store, spec)
        point = spec.points()[0]
        for _ in range(2):
            # Age the stamp past READ_STAMP_SECONDS (NULL on the first
            # pass): the next read restamps it, exactly once.
            with store.db.transaction() as conn:
                conn.execute(
                    "UPDATE sweeps SET last_read_at = last_read_at - ?",
                    (store_api.READ_STAMP_SECONDS + 1,),
                )
            before = store.stats.copy()
            store.read_column(spec, name, "y")
            store.load_point(spec, name, point)
            assert store.stats["column_read"] == before["column_read"] + 1
            assert store.stats["read_touch"] == before["read_touch"] + 1
            assert store.stats["column_point"] == before["column_point"] + 1
            # A read right after the stamp writes nothing.
            store.read_column(spec, name, "y")
            assert store.stats["column_read"] == before["column_read"] + 2
            assert store.stats["read_touch"] == before["read_touch"] + 1


class TestBound:
    def test_cache_evicts_past_its_byte_bound(
        self, store_dir, shard_reads, monkeypatch
    ):
        spec = grid_spec(6, "bounded")
        with ResultStore(store_dir, code_version="pinned") as writer:
            name = _finalized(writer, spec)
        # A shard entry holding "y" alone is charged for its five metric
        # names, three array headers and 2 + 16 + 16 bytes of data:
        # 2082 bytes.  Two shards fit under 5000 bytes, three do not.
        monkeypatch.setattr(col, "SHARD_CACHE_BYTES", 5000)
        with ResultStore(store_dir, code_version="pinned") as reader:
            expected = reader.read_column(spec, name, "y").tolist()
            cache = reader._shard_cache
            assert len(cache) == 2
            assert cache.nbytes <= 5000
            del shard_reads["opens"][:]
            # Least recently used goes first, so a full re-read of three
            # shards through a two-shard cache reopens every one.
            assert reader.read_column(spec, name, "y").tolist() == expected
            assert len(shard_reads["opens"]) == 3
            assert cache.nbytes <= 5000


    @pytest.mark.parametrize("bound, cached", [(13000, 2), (12000, 1),
                                               (6000, 0)])
    def test_point_rows_are_charged_under_the_bound(
        self, store_dir, shard_reads, monkeypatch, bound, cached
    ):
        spec = grid_spec(6, "bounded-rows")
        with ResultStore(store_dir, code_version="pinned") as writer:
            name = _finalized(writer, spec)
        # A whole shard of two five-metric points: five metric names,
        # 15 array headers and 5 x (2 + 16 + 16) data bytes (5290),
        # plus two rows of five values once a point read asks for them.
        arrays = 5 * col.METRIC_OVERHEAD_BYTES + 5 * (
            3 * col.ARRAY_OVERHEAD_BYTES + 34
        )
        rows = 2 * col.ROW_OVERHEAD_BYTES + 10 * col.ROW_ITEM_BYTES
        monkeypatch.setattr(col, "SHARD_CACHE_BYTES", bound)
        with ResultStore(store_dir, code_version="pinned") as reader:
            cache = reader._shard_cache
            expected = [scalar_runner(p.params, p.seed) for p in spec.points()]
            for _pass in range(2):
                del shard_reads["opens"][:]
                loaded = reader.load_points(spec, name, spec.points())
                assert [value for _hit, value in loaded] == expected
                # Three shards through a cache of fewer: each reopens.
                assert len(shard_reads["opens"]) == 3
                assert len(cache) == cached
                assert cache.nbytes == cached * (arrays + rows) <= bound
            for entry in cache._entries.values():
                assert entry.nbytes == arrays + rows
                assert len(entry.rows) == 2


class TestKey:
    def test_reused_shard_id_does_not_serve_the_old_shard(self, store_dir):
        """Handle A caches sweep X's shard; handle B collects X and
        writes sweep Y, whose sweep id, shard id and shard filename
        all reuse X's.  A must read Y's values, as a fresh handle does.
        """
        spec_x = grid_spec(4, "reuse-x")
        spec_y = grid_spec(4, "reuse-y")
        a = ResultStore(store_dir, code_version="pinned", shared_writer=True)
        b = ResultStore(store_dir, code_version="pinned", shared_writer=True)
        with a, b:
            name_x = _finalized(a, spec_x, shard_points=4)
            hit, value = a.load_point(spec_x, name_x, spec_x.points()[0])
            assert hit and value["y"] == 0.0
            x_files = sorted(a.db.shards_dir.glob("*.npz"))

            report = b.gc(keep_days=0)
            assert report["sweeps_removed"] == 1
            name_y = _finalized(b, spec_y, negative_runner, shard_points=4)
            # The premise: Y's shard took over X's id and filename.
            assert sorted(b.db.shards_dir.glob("*.npz")) == x_files

            hit, value = a.load_point(spec_y, name_y, spec_y.points()[0])
            assert hit and value["y"] == -1000.0
            assert a.read_column(spec_y, name_y, "y").tolist() == [
                -1000.0 - x for x in range(4)
            ]
        with ResultStore(store_dir, code_version="pinned") as fresh:
            hit, value = fresh.load_point(spec_y, name_y, spec_y.points()[0])
            assert hit and value["y"] == -1000.0

    def test_decode_error_quarantines_and_drops_the_entry(self, store):
        spec = grid_spec(4, "drop-entry")
        name = _finalized(store, spec, shard_points=4)
        store.read_column(spec, name, "y")  # caches "y" only
        assert len(store._shard_cache) == 1
        [shard] = store.db.shards_dir.glob("*.npz")
        shard.write_bytes(b"\x89NOT-AN-NPZ" * 64)
        # "n" is not cached yet, so this read opens the damaged file.
        with pytest.raises(StoreCorruptError, match="quarantined"):
            store.read_column(spec, name, "n")
        assert len(store._shard_cache) == 0
        assert not shard.exists()
        hit, _value = store.load_point(spec, name, spec.points()[0])
        assert not hit


class TestFinalizeScope:
    def test_noop_finalize_digests_the_spec_once(self, store, monkeypatch):
        spec = grid_spec(4, "noop-finalize")
        name = _finalized(store, spec)
        calls = []
        real = store_api.spec_digest

        def counting(spec):
            calls.append(spec)
            return real(spec)

        monkeypatch.setattr(store_api, "spec_digest", counting)
        assert store.finalize_sweep(spec, name) == 0
        assert len(calls) == 1

    def test_cold_finalize_digests_the_spec_once(self, store, monkeypatch):
        spec = grid_spec(4, "cold-finalize")
        name = runner_name(scalar_runner)
        run_sweep(spec, scalar_runner, cache=store.sweep_cache())
        calls = []
        real = store_api.spec_digest

        def counting(spec):
            calls.append(spec)
            return real(spec)

        monkeypatch.setattr(store_api, "spec_digest", counting)
        assert store.finalize_sweep(spec, name, shard_points=2) == 2
        assert len(calls) == 1

    def test_finalize_work_does_not_grow_with_experiment_history(
        self, tmp_path
    ):
        """Finalizing a 2-point sweep does the same SQLite work whether
        or not the experiment already holds hundreds of other points:
        the read is scoped to the spec's keys (counted in SQLite VM
        instructions, not wall time)."""
        spec = grid_spec(2, "history")
        steps = {}
        for label, others in (("bare", 0), ("history", 400)):
            store = ResultStore(tmp_path / label, code_version="pinned")
            with store:
                if others:
                    wide = grid_spec(others, "history", base_seed=99)
                    run_sweep(wide, scalar_runner, cache=store.sweep_cache())
                name = runner_name(scalar_runner)
                run_sweep(spec, scalar_runner, cache=store.sweep_cache())
                steps[label] = _vm_steps(
                    store, lambda: store.finalize_sweep(spec, name)
                )
        assert steps["history"] <= steps["bare"] * 1.05, steps

    def test_finalize_reads_every_key_chunk(self, store, monkeypatch):
        monkeypatch.setattr(store_api, "_KEYS_PER_QUERY", 2)
        spec = grid_spec(5, "chunked")
        name = _finalized(store, spec)
        assert store.read_column(spec, name, "y").tolist() == [
            x * 2.0 for x in range(5)
        ]


def _vm_steps(store, action):
    """SQLite virtual-machine instructions ``action`` runs on the
    store's connection."""
    count = [0]

    def tick():
        count[0] += 1
        return 0

    conn = store.db.connection()
    conn.set_progress_handler(tick, 1)
    try:
        action()
    finally:
        conn.set_progress_handler(None, 1)
    return count[0]
