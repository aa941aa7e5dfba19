"""Store-backed sweeps replay byte-identically.

The store is the sweep engine's one cache and journal, so it must
change *nothing* observable: the same ``SweepResult`` values and
outcomes as an uncached run, the same ``canonical_bytes``, serial or
parallel, cold or warm, before or after finalization into columnar
shards, and across a journaled resume.
"""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.sweep import (
    CACHE_ENV_VAR,
    canonical_bytes,
    run_sweep,
    runner_name,
    sweep_cache,
)
from repro.store import ResultStore, StoreSweepCache

from tests.store.conftest import (
    grid_spec,
    mixed_runner,
    opaque_runner,
    scalar_runner,
)

RUNNERS = [scalar_runner, mixed_runner, opaque_runner]


def _run(spec, runner, cache=None, workers=1, journal=None, resume=False):
    return run_sweep(
        spec, runner, workers=workers, cache=cache,
        journal=journal, resume=resume,
    )


def _signature(result):
    return (
        canonical_bytes(result.values),
        [
            (o.key, o.index, o.status, o.attempts, o.error)
            for o in result.outcomes
        ],
    )


class TestByteIdentity:
    @pytest.mark.parametrize("runner", RUNNERS)
    def test_store_matches_uncached_run_cold_and_warm(
        self, tmp_path, runner
    ):
        spec = grid_spec(6)
        uncached = _run(spec, runner)
        with ResultStore(tmp_path / "store", code_version="pinned") as st:
            for _ in ("cold", "warm"):
                stored = _run(spec, runner, st.sweep_cache())
                assert canonical_bytes(stored.values) == canonical_bytes(
                    uncached.values
                )
                assert stored.values == uncached.values

    @pytest.mark.parametrize("runner", [scalar_runner, mixed_runner])
    def test_serial_matches_parallel_through_store(self, tmp_path, runner):
        spec = grid_spec(6)
        with ResultStore(tmp_path / "s1", code_version="pinned") as s1:
            serial = _run(spec, runner, s1.sweep_cache(), workers=1)
        with ResultStore(tmp_path / "s2", code_version="pinned") as s2:
            parallel = _run(spec, runner, s2.sweep_cache(), workers=2)
        assert _signature(serial) == _signature(parallel)

    @pytest.mark.parametrize("runner", RUNNERS)
    def test_finalized_columnar_replay_still_identical(
        self, tmp_path, runner
    ):
        spec = grid_spec(7)
        name = runner_name(runner)
        with ResultStore(tmp_path / "store", code_version="pinned") as st:
            cold = _run(spec, runner, st.sweep_cache())
            st.finalize_sweep(spec, name, shard_points=3)
            warm = _run(spec, runner, st.sweep_cache())
            assert cold.values == warm.values
            assert canonical_bytes(warm.values) == canonical_bytes(
                cold.values
            )
            assert all(o.cached for o in warm.outcomes)
            # Replays after finalization must come from the columns,
            # not from pickled blobs.
            if runner is not opaque_runner:
                assert st.stats["column_point"] == len(spec)

    def test_warm_replay_value_types_are_exact(self, tmp_path):
        spec = grid_spec(5)
        with ResultStore(tmp_path / "store", code_version="pinned") as st:
            cold = _run(spec, scalar_runner, st.sweep_cache())
            st.finalize_sweep(spec, runner_name(scalar_runner))
            warm = _run(spec, scalar_runner, st.sweep_cache())
        for before, after in zip(cold.values, warm.values):
            assert before == after
            for key in before:
                assert type(before[key]) is type(after[key])


class TestJournalResume:
    def test_resume_replays_every_stored_point(self, tmp_path):
        spec = grid_spec(6)
        name = runner_name(scalar_runner)
        with ResultStore(tmp_path / "store", code_version="pinned") as st:
            journal = st.run_journal(spec.experiment_id, name)
            first = _run(
                spec, scalar_runner, st.sweep_cache(),
                journal=journal, resume=True,
            )
            assert not any(o.resumed for o in first.outcomes)
            second = _run(
                spec, scalar_runner, st.sweep_cache(),
                journal=journal, resume=True,
            )
        assert second.values == first.values
        assert all(o.resumed and o.cached for o in second.outcomes)

    def test_journal_must_come_from_a_store(self, tmp_path):
        with pytest.raises(ConfigurationError, match="run_journal"):
            _run(grid_spec(2), scalar_runner, journal=tmp_path)


class TestSweepCache:
    def test_cache_directory_opens_a_store(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        assert sweep_cache(None) is None
        cache = sweep_cache(tmp_path / "cache")
        assert isinstance(cache, StoreSweepCache)
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "env"))
        env_cache = sweep_cache(None)
        assert env_cache.result_store.directory == tmp_path / "env"
