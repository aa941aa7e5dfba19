"""A fully cached sweep pass writes nothing and takes no lock it did
not hold.

The pass has the ``scenario-replay`` shape: per spec ``run_sweep``
(store cache + run journal), ``finalize_sweep`` and three
``read_column`` calls.  Statements are counted with SQLite's own trace
hook, so any write transaction a warm pass opens shows up as a
``BEGIN IMMEDIATE``.
"""

import pytest

from repro.experiments.sweep import run_sweep, runner_name

from tests.store.conftest import grid_spec, scalar_runner

METRICS = ("y", "n", "seed_mod")


def one_pass(store, specs):
    name = runner_name(scalar_runner)
    columns = []
    for spec in specs:
        run_sweep(
            spec,
            scalar_runner,
            workers=1,
            cache=store.sweep_cache(),
            journal=store.run_journal(spec.experiment_id, name),
        )
        store.finalize_sweep(spec, name)
        columns += [
            store.read_column(spec, name, metric).tolist()
            for metric in METRICS
        ]
    return columns


@pytest.fixture
def traced(store):
    statements = []
    store.db.connection().set_trace_callback(statements.append)
    yield statements
    store.db.connection().set_trace_callback(None)


def test_warm_pass_opens_no_write_transaction(store, traced):
    specs = [
        grid_spec(4, "warm-a", replications=2),
        grid_spec(3, "warm-b"),
        grid_spec(3, "warm-c", base_seed=7),
    ]
    cold = one_pass(store, specs)
    assert any(s.startswith("BEGIN IMMEDIATE") for s in traced)
    del traced[:]
    touches = store.stats["read_touch"]
    assert one_pass(store, specs) == cold
    assert traced, "the trace hook saw no statement"
    assert [s for s in traced if s.startswith("BEGIN")] == []
    assert store.stats["read_touch"] == touches


@pytest.mark.parametrize("held", [False, True])
def test_noop_finalize_leaves_the_writer_lock_as_it_was(store, held):
    spec = grid_spec(4, "noop-lock")
    name = runner_name(scalar_runner)
    run_sweep(spec, scalar_runner, cache=store.sweep_cache())
    assert store.finalize_sweep(spec, name) > 0
    store.release()
    if held:
        store.acquire()
    assert store.db.holds_writer_lock is held
    assert store.finalize_sweep(spec, name) == 0
    assert store.db.holds_writer_lock is held
