"""A warm replay copies each point's finished row out of the shard cache.

A :class:`~repro.store.columns.CachedShard` read whole keeps every
point's scalar dict, built once in the shard's metric order; a hit
hands out a copy plus its decoded residual.  These tests pin what that
must not change: the exact value, type and key order a fresh handle
returns (down to the pickle bytes), freshness of each returned dict,
and the outcomes a journaled resume reports for its hits.
"""

import math
import pickle

import pytest

from repro.experiments.resilience import ChaosSpec, FailurePolicy
from repro.experiments.sweep import run_sweep, runner_name
from repro.store import ResultStore
from repro.store import api as store_api

from tests.store.conftest import grid_spec, mixed_runner, scalar_runner


def typed_runner(params, seed):
    """Every shard kind, absent metrics, and a residual beside them."""
    x = params["x"]
    value = {
        "zeta": x / 3.0,
        "count": x * 7,
        "flag": x % 2 == 0,
        "none": None,
        "label": f"point-{x}",
        "nested": {"k": [x, "s"]},
        "big": 2**70 + x,
        "alpha": float("nan") if x == 2 else -0.0,
    }
    if x % 3 == 0:
        value["sometimes"] = x  # absent from the other points
    return value


def sometimes_fails(params, seed):
    if params["x"] == 3:
        raise ValueError("point 3 always fails")
    return scalar_runner(params, seed)


def fresh_handle_form(value):
    """A columnar point as a fresh handle returns it: the scalars in
    sorted metric order (the shard's), then the JSON residual's keys,
    sorted too."""
    scalars = {
        key: item for key, item in sorted(value.items())
        if item is None or isinstance(item, (bool, float))
        or (isinstance(item, int) and -(2**63) <= item < 2**63)
    }
    scalars.update(
        (key, item) for key, item in sorted(value.items())
        if key not in scalars
    )
    return scalars


def _finalize(store_dir, spec, runner, shard_points=3):
    with ResultStore(store_dir, code_version="pinned") as writer:
        run_sweep(spec, runner, cache=writer.sweep_cache())
        writer.finalize_sweep(spec, runner_name(runner), shard_points)


def _load(store, spec, runner):
    loaded = store.load_points(spec, runner_name(runner), spec.points())
    assert all(hit for hit, _value in loaded)
    return [value for _hit, value in loaded]


class TestExactValues:
    @pytest.mark.parametrize("runner", [typed_runner, mixed_runner])
    def test_values_pickle_as_a_fresh_handle_builds_them(
        self, store_dir, runner
    ):
        spec = grid_spec(7, "typed")
        _finalize(store_dir, spec, runner)
        with ResultStore(store_dir, code_version="pinned") as reader:
            for _pass in ("cold", "warm"):
                values = _load(reader, spec, runner)
                assert [pickle.dumps(v) for v in values] == [
                    pickle.dumps(fresh_handle_form(runner(p.params, p.seed)))
                    for p in spec.points()
                ]
        if runner is typed_runner:
            assert math.isnan(values[2]["alpha"])
            assert "sometimes" in values[3] and "sometimes" not in values[4]

    @pytest.mark.parametrize("metric", ["zeta", "count", "sometimes"])
    def test_key_order_does_not_depend_on_earlier_column_reads(
        self, store_dir, metric
    ):
        spec = grid_spec(6, "order")
        _finalize(store_dir, spec, typed_runner)
        name = runner_name(typed_runner)
        with ResultStore(store_dir, code_version="pinned") as fresh:
            expected = _load(fresh, spec, typed_runner)
        with ResultStore(store_dir, code_version="pinned") as reader:
            reader.read_column(spec, name, metric)
            values = _load(reader, spec, typed_runner)
        assert [list(v) for v in values] == [list(v) for v in expected]
        assert pickle.dumps(values) == pickle.dumps(expected)


class TestFreshValues:
    def test_mutating_a_returned_value_changes_no_later_read(
        self, store_dir
    ):
        spec = grid_spec(4, "fresh")
        _finalize(store_dir, spec, mixed_runner, shard_points=4)
        name = runner_name(mixed_runner)
        with ResultStore(store_dir, code_version="pinned") as reader:
            first = _load(reader, spec, mixed_runner)
            expected = pickle.dumps(first)
            for value in first:
                value["y"] = "changed"
                value["added"] = 1
                del value["count"]
                value["nested"]["inner"] = "changed"
            assert pickle.dumps(_load(reader, spec, mixed_runner)) == expected
            hit, value = reader.load_point(spec, name, spec.points()[1])
            assert hit and pickle.dumps(value) == pickle.dumps(
                pickle.loads(expected)[1]
            )
            value.clear()
            assert pickle.dumps(_load(reader, spec, mixed_runner)) == expected

    def test_refinalize_reads_the_same_rows(self, store_dir):
        """Points joining a finalized sweep re-finalize it from the
        cached rows; the values come back unchanged."""
        small = grid_spec(4, "grow")
        grown = grid_spec(6, "grow")
        with ResultStore(store_dir, code_version="pinned") as store:
            name = runner_name(typed_runner)
            run_sweep(small, typed_runner, cache=store.sweep_cache())
            store.finalize_sweep(small, name, shard_points=3)
            _load(store, small, typed_runner)  # rows cached
            run_sweep(grown, typed_runner, cache=store.sweep_cache())
            store.finalize_sweep(grown, name, shard_points=4)
            values = _load(store, grown, typed_runner)
        assert [pickle.dumps(v) for v in values] == [
            pickle.dumps(fresh_handle_form(typed_runner(p.params, p.seed)))
            for p in grown.points()
        ]


class TestHitOutcomes:
    def test_resumed_hits_report_their_journaled_attempts(self, store):
        """Point 1 needs a retry, point 3 fails for good; the resumed
        run serves the rest from the columns with their journaled
        attempts and replays point 3's failure."""
        spec = grid_spec(5, "resume-hits")
        name = runner_name(sometimes_fails)
        policy = FailurePolicy(max_attempts=2, on_error="collect")

        def run(chaos=None):
            return run_sweep(
                spec, sometimes_fails, workers=1,
                cache=store.sweep_cache(), policy=policy, chaos=chaos,
                journal=store.run_journal(spec.experiment_id, name),
            )

        first = run(ChaosSpec(plan={1: ("raise",)}))
        assert [o.attempts for o in first.outcomes] == [1, 2, 1, 2, 1]
        # Only complete sweeps finalize: store point 3's slot by hand.
        store.store_point(spec, name, spec.points()[3], None)
        store.finalize_sweep(spec, name)
        with store.db.transaction() as conn:
            conn.execute(
                "DELETE FROM points WHERE point_key = ?",
                (store_api._point_store_key(spec.points()[3]),),
            )
        second = run()
        assert second.cache_hits == 4
        for before, after in zip(first.outcomes, second.outcomes):
            assert (after.key, after.index, after.status) == (
                before.key, before.index, before.status
            )
            assert after.attempts == before.attempts
            assert after.attempt_seconds == before.attempt_seconds
            assert after.resumed
            assert after.cached is before.ok
            assert (after.error, after.traceback) == (
                before.error, before.traceback
            )
        assert second.outcomes[3].status == "failed"
        assert second.values[:3] == first.values[:3]
