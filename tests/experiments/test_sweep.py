"""Determinism suite for the parallel sweep engine.

The engine's contract: for a fixed seed, sweep results are
*byte-identical* no matter how they were produced — serial, any worker
count, cold cache or warm cache — and aggregation order is the point
order, never the completion order.
"""

import os
import sqlite3
import time

import pytest

from repro.errors import ConfigurationError
from repro.experiments import (
    EXPERIMENTS,
    access_model,
    crossover,
    fig1_timescales,
    fig2_workflow,
    fig3_vqpu,
    fig4_malleability,
    listing1_coschedule,
)
from repro.experiments.sweep import (
    SweepSpec,
    canonical_bytes,
    derive_point_seed,
    resolve_workers,
    run_cached_sweep,
    run_sweep,
    runner_name,
)
from repro.store import ResultStore


@pytest.fixture
def store_cache():
    """Opens sweep caches in result stores; closes every store at
    teardown, so no SQLite handle or writer lock outlives the test."""
    stores = []

    def open_cache(directory, code_version=None):
        store = ResultStore(directory, code_version=code_version)
        stores.append(store)
        return store.sweep_cache()

    yield open_cache
    for store in stores:
        store.close()


def _corrupt_payloads(directory, payload):
    """Overwrite every stored point's inline payload."""
    conn = sqlite3.connect(directory / "store.sqlite3")
    with conn:
        conn.execute("UPDATE points SET payload = ?", (payload,))
    conn.close()


def _simulate(params, seed):
    """A tiny but real discrete-event campaign (picklable, ~10 ms)."""
    return fig3_vqpu._run_point(
        {
            "case": params["case"],
            "vqpus": params["vqpus"],
            "tenants": 2,
            "iterations": 1,
        },
        seed,
    )


def _slow_early_points(params, seed):
    """Completion order is the *reverse* of point order under >1 worker."""
    time.sleep(0.2 * (2 - params["i"]))
    return {"i": params["i"], "seed": seed}


def _record_seed(params, seed):
    return seed


def _failing_runner(params, seed):
    raise RuntimeError(f"point {params['vqpus']} failed")


def _mutating_runner(params, seed):
    params["scratch"] = seed  # must not leak into the point's identity
    return params["i"]


def _small_spec(seed=0, replications=1, seed_mode="derived"):
    return SweepSpec(
        experiment_id="test-sweep",
        axes={"case": ["classical"], "vqpus": [1, 2]},
        replications=replications,
        base_seed=seed,
        seed_mode=seed_mode,
    )


class TestSweepSpec:
    def test_grid_enumeration_row_major(self):
        spec = SweepSpec(
            experiment_id="x",
            axes={"a": [1, 2], "b": ["u", "v"]},
        )
        assert [p.params for p in spec.points()] == [
            {"a": 1, "b": "u"},
            {"a": 1, "b": "v"},
            {"a": 2, "b": "u"},
            {"a": 2, "b": "v"},
        ]
        assert [p.index for p in spec.points()] == [0, 1, 2, 3]
        assert len(spec) == 4

    def test_explicit_points_preserve_order(self):
        explicit = [{"k": 3}, {"k": 1}, {"k": 2}]
        spec = SweepSpec(experiment_id="x", explicit=explicit)
        assert [p.params for p in spec.points()] == explicit

    def test_constants_merged_into_every_point(self):
        spec = SweepSpec(
            experiment_id="x", axes={"a": [1]}, constants={"c": 9}
        )
        assert spec.points()[0].params == {"a": 1, "c": 9}

    def test_constants_clash_rejected(self):
        spec = SweepSpec(
            experiment_id="x", axes={"a": [1]}, constants={"a": 2}
        )
        with pytest.raises(ConfigurationError):
            spec.points()

    def test_needs_exactly_one_grid_source(self):
        with pytest.raises(ConfigurationError):
            SweepSpec(experiment_id="x")
        with pytest.raises(ConfigurationError):
            SweepSpec(experiment_id="x", axes={"a": [1]}, explicit=[{}])

    def test_replications_enumerate_outermost(self):
        spec = SweepSpec(
            experiment_id="x", axes={"a": [1, 2]}, replications=2
        )
        points = spec.points()
        assert [(p.replication, p.params["a"]) for p in points] == [
            (0, 1),
            (0, 2),
            (1, 1),
            (1, 2),
        ]
        assert len(spec) == 4


class TestSeedDerivation:
    def test_shared_mode_replication_zero_uses_base_seed(self):
        spec = _small_spec(seed=7, seed_mode="shared")
        assert all(p.seed == 7 for p in spec.points())

    def test_shared_mode_replications_get_distinct_shared_seeds(self):
        spec = _small_spec(seed=7, replications=2, seed_mode="shared")
        seeds = {p.replication: set() for p in spec.points()}
        for p in spec.points():
            seeds[p.replication].add(p.seed)
        assert seeds[0] == {7}
        assert len(seeds[1]) == 1
        assert seeds[1] != {7}

    def test_derived_mode_gives_every_point_its_own_seed(self):
        spec = _small_spec(seed=7, replications=2, seed_mode="derived")
        seeds = [p.seed for p in spec.points()]
        assert len(set(seeds)) == len(seeds)

    def test_derivation_is_param_order_independent(self):
        assert derive_point_seed(
            0, "x", {"a": 1, "b": 2}
        ) == derive_point_seed(0, "x", {"b": 2, "a": 1})

    def test_derivation_is_stable_across_calls(self):
        first = derive_point_seed(3, "x", {"a": 1}, replication=1)
        assert derive_point_seed(3, "x", {"a": 1}, replication=1) == first
        assert derive_point_seed(3, "x", {"a": 1}, replication=2) != first
        assert derive_point_seed(3, "y", {"a": 1}, replication=1) != first

    def test_non_json_params_rejected(self):
        with pytest.raises(ConfigurationError):
            derive_point_seed(0, "x", {"a": object()})


class TestByteIdentity:
    """The acceptance criterion, asserted literally."""

    def test_serial_and_parallel_results_are_byte_identical(self):
        spec = _small_spec(seed=0, seed_mode="shared")
        serial = run_sweep(spec, _simulate, workers=1)
        for workers in (2, 4):
            parallel = run_sweep(spec, _simulate, workers=workers)
            assert canonical_bytes(parallel.values) == canonical_bytes(
                serial.values
            )

    def test_cold_and_warm_cache_are_byte_identical(
        self, tmp_path, store_cache
    ):
        spec = _small_spec(seed=0)
        cache = store_cache(tmp_path)
        cold = run_sweep(spec, _simulate, workers=1, cache=cache)
        assert cold.cache_hits == 0
        assert cold.cache_misses == len(spec)
        warm = run_sweep(spec, _simulate, workers=1, cache=cache)
        assert warm.cache_hits == len(spec)
        assert warm.cache_misses == 0
        assert canonical_bytes(warm.values) == canonical_bytes(cold.values)

    def test_worker_count_change_on_warm_cache_is_byte_identical(
        self, tmp_path, store_cache
    ):
        spec = _small_spec(seed=0)
        cache = store_cache(tmp_path)
        cold = run_sweep(spec, _simulate, workers=1, cache=cache)
        warm_parallel = run_sweep(spec, _simulate, workers=4, cache=cache)
        assert warm_parallel.cache_hits == len(spec)
        assert canonical_bytes(warm_parallel.values) == canonical_bytes(
            cold.values
        )

    def test_partial_cache_only_simulates_new_points(
        self, tmp_path, store_cache
    ):
        cache = store_cache(tmp_path)
        small = SweepSpec(
            experiment_id="test-sweep",
            axes={"case": ["classical"], "vqpus": [1]},
        )
        run_sweep(small, _simulate, cache=cache)
        grown = SweepSpec(
            experiment_id="test-sweep",
            axes={"case": ["classical"], "vqpus": [1, 2]},
        )
        result = run_sweep(grown, _simulate, cache=cache)
        assert result.cache_hits == 1
        assert result.cache_misses == 1
        fresh = run_sweep(grown, _simulate)
        assert canonical_bytes(result.values) == canonical_bytes(
            fresh.values
        )


class TestOrdering:
    def test_streaming_follows_point_order_not_completion_order(self):
        spec = SweepSpec(
            experiment_id="order", axes={"i": [0, 1, 2]}
        )
        delivered = []
        result = run_sweep(
            spec,
            _slow_early_points,
            workers=3,
            on_result=lambda point, value: delivered.append(
                point.params["i"]
            ),
        )
        assert delivered == [0, 1, 2]
        assert [value["i"] for value in result.values] == [0, 1, 2]

    def test_values_align_with_points(self):
        spec = _small_spec(seed=5, seed_mode="derived")
        result = run_sweep(spec, _record_seed, workers=2)
        assert result.values == [p.seed for p in result.points]


class TestCodeVersion:
    """The default cache code-version must never alias distinct code."""

    def _version_with(self, monkeypatch, outputs):
        """Compute _default_code_version with git outputs stubbed."""
        from repro.experiments import sweep as sweep_module

        def fake_git(args):
            return outputs.get(args[0], "")

        monkeypatch.setattr(sweep_module, "_git_output", fake_git)
        monkeypatch.setattr(sweep_module, "_CODE_VERSION", None)
        monkeypatch.delenv(
            sweep_module.CODE_VERSION_ENV_VAR, raising=False
        )
        return sweep_module._default_code_version()

    def test_clean_tree_keys_to_revision_only(self, monkeypatch):
        version = self._version_with(
            monkeypatch, {"rev-parse": "abc123\n", "status": ""}
        )
        assert version.endswith("+gabc123")
        assert "dirty" not in version

    def test_dirty_tree_appends_content_marker(self, monkeypatch):
        clean = self._version_with(
            monkeypatch, {"rev-parse": "abc123\n", "status": ""}
        )
        dirty = self._version_with(
            monkeypatch,
            {
                "rev-parse": "abc123\n",
                "status": " M src/repro/foo.py\n",
                "diff": "-old\n+new\n",
            },
        )
        assert dirty != clean
        assert ".dirty." in dirty

    def test_different_edits_get_different_markers(self, monkeypatch):
        first = self._version_with(
            monkeypatch,
            {
                "rev-parse": "abc123\n",
                "status": " M a.py\n",
                "diff": "-x\n+y\n",
            },
        )
        second = self._version_with(
            monkeypatch,
            {
                "rev-parse": "abc123\n",
                "status": " M a.py\n",
                "diff": "-x\n+z\n",
            },
        )
        assert first != second

    def test_untracked_files_count_as_dirty(self, monkeypatch):
        version = self._version_with(
            monkeypatch,
            {"rev-parse": "abc123\n", "status": "?? new_file.py\n"},
        )
        assert ".dirty." in version

    def test_untracked_content_changes_the_marker(
        self, monkeypatch, tmp_path
    ):
        """Editing an untracked file must invalidate cache keys even
        though neither `status` nor `diff HEAD` sees its contents."""
        untracked = tmp_path / "new_module.py"

        def version_for(content):
            untracked.write_text(content)
            return self._version_with(
                monkeypatch,
                {
                    # rev-parse is called for HEAD and --show-toplevel;
                    # both resolve through the same stub output.
                    "rev-parse": f"{tmp_path}\n",
                    "status": "?? new_module.py\n",
                    "ls-files": "new_module.py\n",
                },
            )

        assert version_for("x = 1\n") != version_for("x = 2\n")

    def test_env_override_wins(self, monkeypatch):
        from repro.experiments import sweep as sweep_module

        monkeypatch.setenv(
            sweep_module.CODE_VERSION_ENV_VAR, "pinned-v9"
        )
        assert sweep_module._default_code_version() == "pinned-v9"


class TestCacheKeying:
    def test_code_version_invalidates(self, tmp_path, store_cache):
        spec = _small_spec()
        old = store_cache(tmp_path, code_version="v1")
        run_sweep(spec, _simulate, cache=old)
        old.result_store.close()  # one writer per store directory
        new = store_cache(tmp_path, code_version="v2")
        result = run_sweep(spec, _simulate, cache=new)
        assert result.cache_hits == 0

    def test_different_seeds_never_collide(self, tmp_path, store_cache):
        cache = store_cache(tmp_path)
        a = run_sweep(
            _small_spec(seed=0, seed_mode="derived"), _record_seed,
            cache=cache,
        )
        b = run_sweep(
            _small_spec(seed=1, seed_mode="derived"), _record_seed,
            cache=cache,
        )
        assert b.cache_hits == 0
        assert a.values != b.values

    def test_runner_mutating_params_cannot_poison_identity(
        self, tmp_path, store_cache
    ):
        """Runners get a copy: the point's params (and thus its cache
        key and report coordinates) stay pristine, and a warm re-run
        hits every entry."""
        spec = SweepSpec(
            experiment_id="mut", axes={"i": [1, 2]}, replications=2
        )
        cache = store_cache(tmp_path)
        cold = run_sweep(spec, _mutating_runner, cache=cache)
        assert all(
            set(p.params) == {"i"} for p in cold.points
        )
        warm = run_sweep(spec, _mutating_runner, cache=cache)
        assert warm.cache_hits == len(spec)
        assert warm.values == cold.values

    def test_corrupt_entry_counts_as_miss(self, tmp_path, store_cache):
        spec = _small_spec()
        cache = store_cache(tmp_path)
        run_sweep(spec, _record_seed, cache=cache)
        _corrupt_payloads(tmp_path, b"not json")
        result = run_sweep(spec, _record_seed, cache=cache)
        assert result.cache_hits == 0
        assert result.cache_misses == len(spec)

    def test_truncated_entry_counts_as_miss(self, tmp_path, store_cache):
        spec = _small_spec()
        cache = store_cache(tmp_path)
        cold = run_sweep(spec, _simulate, cache=cache)
        conn = sqlite3.connect(tmp_path / "store.sqlite3")
        with conn:  # torn payload: only its first bytes survive
            conn.execute("UPDATE points SET payload = substr(payload, 1, 3)")
        conn.close()
        result = run_sweep(spec, _simulate, cache=cache)
        assert result.cache_hits == 0
        assert result.values == cold.values

    def test_corrupt_entry_is_replaced_not_left_in_place(
        self, tmp_path, store_cache
    ):
        spec = _small_spec()
        cache = store_cache(tmp_path)
        cold = run_sweep(spec, _record_seed, cache=cache)
        _corrupt_payloads(tmp_path, b"not json")
        run_sweep(spec, _record_seed, cache=cache)
        # The bad rows were dropped and the re-simulated values
        # repopulated every slot.
        third = run_sweep(spec, _record_seed, cache=cache)
        assert third.cache_hits == len(spec)
        assert third.values == cold.values


class TestWorkersResolution:
    def test_explicit_wins(self):
        assert resolve_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "5")
        assert resolve_workers(None) == 5

    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
        assert resolve_workers(None) == 1

    def test_invalid_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_workers(0)

    def test_cli_strings_resolve(self):
        # argparse hands '--workers 2' through as a string.
        assert resolve_workers("2") == 2
        assert resolve_workers("auto") >= 1

    def test_bad_string_rejected(self):
        with pytest.raises(ConfigurationError, match="'auto' or an"):
            resolve_workers("lots")


class TestExperimentLevelDeterminism:
    """Full experiment artefacts agree serial vs parallel (E1-E4 are
    the cheapest experiments; E5-E7 are covered by their own tests
    plus the engine-level identity above)."""

    @pytest.mark.parametrize("experiment", ["E1", "E2", "E3", "E4"])
    def test_serial_vs_parallel(self, experiment):
        serial = EXPERIMENTS[experiment](seed=0, workers=1)
        parallel = EXPERIMENTS[experiment](seed=0, workers=2)
        assert canonical_bytes(serial) == canonical_bytes(parallel)

    def test_e4_cold_vs_warm_cache(self, tmp_path):
        cold = fig3_vqpu.run(seed=0, cache_dir=str(tmp_path))
        warm = fig3_vqpu.run(seed=0, cache_dir=str(tmp_path))
        assert canonical_bytes(cold) == canonical_bytes(warm)

    def test_run_cached_sweep_honours_env_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_CACHE_DIR", str(tmp_path))
        spec = _small_spec()
        run_cached_sweep(spec, _record_seed)
        assert (tmp_path / "store.sqlite3").exists()


def _open_files_under(directory):
    """Paths under ``directory`` this process holds a descriptor on."""
    prefix = str(directory)
    held = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith(prefix):
            held.append(target)
    return held


#: One small cached run per experiment; each routes its grid through
#: :func:`run_cached_sweep`.
_CACHED_EXPERIMENTS = {
    "fig1_timescales": lambda cache_dir: fig1_timescales.run(
        seed=0, shots=10, cache_dir=cache_dir
    ),
    "listing1_coschedule": lambda cache_dir: listing1_coschedule.run(
        seed=0, cache_dir=cache_dir
    ),
    "fig2_workflow": lambda cache_dir: fig2_workflow.run(
        seed=0, iterations=1, horizon=1800.0, warmup=300.0,
        cache_dir=cache_dir,
    ),
    "access_model": lambda cache_dir: access_model.run(
        seed=0, kernels_per_user=1, user_counts=(1,), cache_dir=cache_dir
    ),
    "crossover": lambda cache_dir: crossover.run(
        seed=0, horizon=1800.0, warmup=300.0, cache_dir=cache_dir
    ),
    "fig3_vqpu": lambda cache_dir: fig3_vqpu.run(
        seed=0, tenants=2, iterations=1, vqpu_counts=(1,),
        cache_dir=cache_dir,
    ),
    "fig4_malleability": lambda cache_dir: fig4_malleability.run(
        seed=0, iterations=1, horizon=1800.0, warmup=300.0,
        cache_dir=cache_dir,
    ),
}


class TestCachedSweepClosesItsStore:
    """A store opened from a cache directory is closed before the call
    returns: no SQLite handle or writer lock waits for the collector."""

    def test_run_cached_sweep_closes_its_store(self, tmp_path):
        result = run_cached_sweep(_small_spec(), _record_seed, tmp_path)
        assert result.cache_misses == 2
        assert (tmp_path / "store.sqlite3").exists()
        assert _open_files_under(tmp_path) == []

    def test_run_cached_sweep_closes_its_store_on_error(self, tmp_path):
        with pytest.raises(RuntimeError, match="point 1 failed"):
            run_cached_sweep(_small_spec(), _failing_runner, tmp_path)
        assert _open_files_under(tmp_path) == []

    def test_writer_lock_is_free_after_return(self, tmp_path):
        run_cached_sweep(_small_spec(), _record_seed, tmp_path)
        with ResultStore(tmp_path) as store:
            store.acquire()
            assert store.db.holds_writer_lock

    def test_warm_run_is_served_from_the_store(self, tmp_path):
        cold = run_cached_sweep(_small_spec(), _record_seed, tmp_path)
        warm = run_cached_sweep(_small_spec(), _record_seed, tmp_path)
        assert (warm.cache_hits, warm.cache_misses) == (2, 0)
        assert canonical_bytes(warm.values) == canonical_bytes(cold.values)

    def test_outcomes_are_journaled_in_the_same_store(self, tmp_path):
        spec = _small_spec()
        result = run_cached_sweep(spec, _record_seed, tmp_path)
        with ResultStore(tmp_path) as store:
            journaled = store.load_outcomes(
                spec.experiment_id, runner_name(_record_seed)
            )
        assert sorted(journaled) == sorted(
            point.key() for point in result.points
        )
        assert all(outcome.ok for outcome in journaled.values())

    def test_without_a_cache_dir_it_is_a_plain_sweep(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_CACHE_DIR", raising=False)
        spec = _small_spec()
        cached = run_cached_sweep(spec, _record_seed, None)
        plain = run_sweep(spec, _record_seed)
        assert cached.values == plain.values
        assert cached.cache_hits == plain.cache_hits == 0

    @pytest.mark.parametrize("experiment", sorted(_CACHED_EXPERIMENTS))
    def test_experiment_closes_its_cache_store(self, experiment, tmp_path):
        _CACHED_EXPERIMENTS[experiment](str(tmp_path))
        assert (tmp_path / "store.sqlite3").exists()
        assert _open_files_under(tmp_path) == []
