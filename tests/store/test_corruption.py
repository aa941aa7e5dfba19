"""Corruption quarantine and garbage collection.

The pickle cache's contract, kept: damaged state is *quarantined*
(renamed ``*.corrupt``, never deleted, never reused) with a clear
error, and the damaged points simply become cache misses that
re-execute — corruption costs recompute, never a crash loop and never
silent bad data.
"""

import math

import pytest

from repro.errors import ConfigurationError, StoreCorruptError, StoreError
from repro.experiments.sweep import run_sweep, runner_name
from repro.store import ResultStore

from tests.store.conftest import grid_spec, scalar_runner


def _finalized_store(tmp_path, n=6, shard_points=2):
    store = ResultStore(tmp_path / "store", code_version="pinned")
    store.open()
    spec = grid_spec(n, "corrupt-grid")
    name = runner_name(scalar_runner)
    run_sweep(spec, scalar_runner, cache=store.sweep_cache())
    store.finalize_sweep(spec, name, shard_points=shard_points)
    return store, spec, name


@pytest.fixture(params=["truncate", "garbage", "empty"])
def damage(request):
    def apply(path):
        if request.param == "truncate":
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 3])
        elif request.param == "garbage":
            path.write_bytes(b"\x89NOT-AN-NPZ" * 64)
        else:
            path.write_bytes(b"")

    return apply


class TestShardQuarantine:
    def test_damaged_shard_quarantined_with_clear_error(
        self, tmp_path, damage
    ):
        store, spec, name = _finalized_store(tmp_path)
        shard = sorted(store.db.shards_dir.glob("*.npz"))[1]
        store.close()
        damage(shard)

        with ResultStore(tmp_path / "store", code_version="pinned") as st:
            with pytest.raises(StoreCorruptError) as excinfo:
                st.read_column(spec, name, "y")
            message = str(excinfo.value)
            assert "quarantined" in message and shard.name in message
        assert not shard.exists()
        quarantined = list(store.db.shards_dir.glob("*.npz.corrupt"))
        assert len(quarantined) == 1

    def test_damaged_points_become_misses_and_reexecute(
        self, tmp_path, damage
    ):
        store, spec, name = _finalized_store(tmp_path)
        shard = sorted(store.db.shards_dir.glob("*.npz"))[0]
        store.close()
        damage(shard)

        with ResultStore(tmp_path / "store", code_version="pinned") as st:
            result = run_sweep(spec, scalar_runner, cache=st.sweep_cache())
            # Shard 0 held points 0-1: they re-executed; the healthy
            # shards replayed from columns.
            cached = [o.cached for o in result.outcomes]
            assert cached == [False, False, True, True, True, True]
            assert result.values == [
                scalar_runner(p.params, p.seed) for p in spec.points()
            ]
            # Re-finalizing heals the sweep back to fully columnar.
            assert st.finalize_sweep(spec, name, shard_points=2) == 3
            assert st.read_column(spec, name, "y").tolist() == [
                x * 2.0 for x in range(6)
            ]

    def test_sweep_reopens_after_quarantine(self, tmp_path, damage):
        store, spec, name = _finalized_store(tmp_path)
        shard = sorted(store.db.shards_dir.glob("*.npz"))[0]
        store.close()
        damage(shard)
        with ResultStore(tmp_path / "store", code_version="pinned") as st:
            with pytest.raises(StoreCorruptError):
                st.read_column(spec, name, "y")
            # Quarantine reopened the sweep: columnar reads refuse
            # (incomplete) instead of returning silently partial data.
            with pytest.raises(StoreError):
                st.read_column(spec, name, "y")
            report = st.verify()
            assert report["ok"], report


class TestInlinePayloadCorruption:
    def test_torn_inline_payload_is_dropped_and_reexecutes(self, store):
        spec = grid_spec(3, "inline")
        name = "r"
        point = spec.points()[0]
        store.store_point(spec, name, point, {"y": 1.0})
        store.db.connection().execute(
            "UPDATE points SET payload = ? WHERE point_key LIKE ?",
            (b'{"torn', f"{point.key()}%"),
        )
        hit, _value = store.load_point(spec, name, point)
        assert not hit
        # The poisoned row is gone — the next load is a plain miss.
        hit, _value = store.load_point(spec, name, point)
        assert not hit

    def test_unpicklable_garbage_payload_dropped(self, store):
        spec = grid_spec(3, "inline2")
        point = spec.points()[0]
        store.store_point(spec, "r", point, ("tuple", 1))
        store.db.connection().execute(
            "UPDATE points SET payload = x'c0ffee'"
        )
        hit, _value = store.load_point(spec, "r", point)
        assert not hit


class TestVerifyReportsShardDamage:
    def test_verify_lists_unreadable_shards(self, tmp_path, damage):
        store, spec, name = _finalized_store(tmp_path)
        shard = sorted(store.db.shards_dir.glob("*.npz"))[2]
        damage(shard)
        report = store.verify()
        store.close()
        assert not report["ok"]
        assert any(shard.name in issue for issue in report["issues"])


class TestGarbageCollection:
    def test_orphans_removed_corrupt_kept(self, tmp_path):
        store, spec, name = _finalized_store(tmp_path)
        orphan = store.db.shards_dir / "sweep999999-0000.npz"
        orphan.write_bytes(b"leftover from a killed finalize")
        tmp = store.db.shards_dir / "tmpx.tmp"
        tmp.write_bytes(b"half-written temp file")
        evidence = store.db.shards_dir / "old.npz.corrupt"
        evidence.write_bytes(b"quarantined evidence")

        dry = store.gc(dry_run=True)
        assert sorted(dry["orphan_files"]) == ["sweep999999-0000.npz",
                                               "tmpx.tmp"]
        assert orphan.exists() and tmp.exists()

        report = store.gc()
        assert sorted(report["orphan_files"]) == ["sweep999999-0000.npz",
                                                  "tmpx.tmp"]
        assert not orphan.exists() and not tmp.exists()
        assert evidence.exists()
        # Referenced shards are untouched; the sweep still reads.
        assert store.read_column(spec, name, "y").tolist() == [
            x * 2.0 for x in range(6)
        ]
        store.close()

    def test_keep_days_expires_idle_sweeps(self, tmp_path):
        store, spec, name = _finalized_store(tmp_path)
        # Backdate every timestamp on the sweep beyond the horizon.
        with store.db.transaction() as conn:
            conn.execute(
                "UPDATE sweeps SET updated_at = 0, last_read_at = 0"
            )
        report = store.gc(keep_days=1.0)
        assert report["sweeps_removed"] == 1
        assert report["points_removed"] == 6
        assert not list(store.db.shards_dir.glob("*.npz"))
        # The expired points are plain misses now.
        hit, _ = store.load_point(spec, name, spec.points()[0])
        assert not hit
        store.close()

    def test_recent_read_keeps_a_sweep_alive(self, tmp_path):
        store, spec, name = _finalized_store(tmp_path)
        with store.db.transaction() as conn:
            conn.execute("UPDATE sweeps SET updated_at = 0")
        # Reading a column refreshes last_read_at.
        store.read_column(spec, name, "y")
        report = store.gc(keep_days=1.0)
        assert report["sweeps_removed"] == 0
        assert store.read_column(spec, name, "y").tolist() == [
            x * 2.0 for x in range(6)
        ]
        store.close()

    @pytest.mark.parametrize("dry_run", [True, False], ids=["dry", "real"])
    @pytest.mark.parametrize(
        "keep_days", [math.nan, math.inf, -math.inf, -1.0, -1e-9]
    )
    def test_bad_keep_days_rejected_before_anything_is_touched(
        self, tmp_path, keep_days, dry_run
    ):
        store, spec, name = _finalized_store(tmp_path)
        orphan = store.db.shards_dir / "sweep999999-0000.npz"
        orphan.write_bytes(b"leftover from a killed finalize")
        shards = sorted(store.db.shards_dir.glob("*.npz"))
        with pytest.raises(ConfigurationError, match="keep_days"):
            store.gc(keep_days=keep_days, dry_run=dry_run)
        assert sorted(store.db.shards_dir.glob("*.npz")) == shards
        assert store.read_column(spec, name, "y").tolist() == [
            x * 2.0 for x in range(6)
        ]
        store.close()

    @pytest.mark.parametrize("dry_run", [True, False], ids=["dry", "real"])
    def test_zero_keep_days_is_valid(self, tmp_path, dry_run):
        store, spec, name = _finalized_store(tmp_path)
        with store.db.transaction() as conn:
            conn.execute(
                "UPDATE sweeps SET updated_at = 0, last_read_at = 0"
            )
        report = store.gc(keep_days=0, dry_run=dry_run)
        assert report["sweeps_removed"] == 1
        assert report["dry_run"] is dry_run
        assert bool(list(store.db.shards_dir.glob("*.npz"))) is dry_run
        store.close()
