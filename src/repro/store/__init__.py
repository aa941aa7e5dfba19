"""``repro.store`` — durable campaign/result store.

SQLite metadata (WAL mode, schema-versioned, migrated on open) plus a
columnar npz metric backend: the one place sweep values, point
outcomes and campaign stages persist.  Start with :class:`ResultStore`:

>>> import tempfile
>>> from repro.store import ResultStore
>>> from repro.experiments.sweep import SweepSpec, run_sweep, runner_name
>>> tmp = tempfile.TemporaryDirectory()
>>> store = ResultStore(tmp.name, code_version="docs")
>>> spec = SweepSpec("doc-grid", axes={"x": [1, 2, 3]})
>>> def double(params, seed):
...     return {"y": params["x"] * 2.0}
>>> name = runner_name(double)
>>> result = run_sweep(spec, double, workers=1,
...                    cache=store.sweep_cache(),
...                    journal=store.run_journal("doc-grid", name))
>>> _ = store.finalize_sweep(spec, name)
>>> store.read_column(spec, name, "y").values.tolist()
[2.0, 4.0, 6.0]
>>> store.close(); tmp.cleanup()

See ``docs/store.md`` for the schema, the durability guarantees and
the gc/retention story.
"""

from repro.store.api import DEFAULT_SHARD_POINTS, ResultStore
from repro.store.cache import StoreRunJournal, StoreSweepCache
from repro.store.columns import MetricColumn
from repro.store.db import StoreDB
from repro.store.schema import SCHEMA_VERSION

__all__ = [
    # Store
    "DEFAULT_SHARD_POINTS",
    "ResultStore",
    "SCHEMA_VERSION",
    "StoreDB",
    # Sweep adapters
    "StoreRunJournal",
    "StoreSweepCache",
    # Columns
    "MetricColumn",
]
