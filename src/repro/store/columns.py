"""Columnar metric encoding: scalar-dict codec + npz shard files.

Serialising one whole metric dict per point would make reading one
metric across a 10^4-point grid cost 10^4 decodes.  The store keeps
point values in two representations instead:

- **Inline payloads** (``points.payload``): canonical JSON whenever
  the value round-trips exactly (:func:`json_exact` — scalars,
  strings, lists, str-keyed dicts to any depth), pickle for anything
  else.  JSON keeps those values *exact* — Python's ``repr`` float
  formatting is shortest-roundtrip, ints are arbitrary precision,
  ``NaN``/``Infinity`` survive — so cached values replay
  byte-identically.
- **Columnar shards** (``shards/*.npz``): after a sweep finalizes,
  eligible points move into npz shards holding three arrays per
  metric — ``k:<m>`` (uint8 kind per point), ``f8:<m>`` (float64),
  ``i8:<m>`` (int64, also carries bools) — indexed by position within
  the shard.  ``numpy.load`` reads zip members lazily, so fetching
  one metric column touches only that metric's arrays: no unpickling,
  no other metrics, no per-point objects.

Kind codes: ``0`` absent, ``1`` float, ``2`` int, ``3`` bool, ``4``
``None``.  Eligibility is per *metric*, not per point:
:func:`split_point` sends the scalar members of a str-keyed metric
dict to the columns and keeps the rest (strings, nested structures,
ints outside int64) inline as a small residual payload, so a stray
``fleet_policy: "easy"`` entry does not force the whole point — let
alone the whole sweep — back to pickles.  A value that is not a
str-keyed dict (or has no scalar members at all) stays fully inline;
the reader falls back transparently either way.

Shard files are written atomically (temp file + fsync +
``os.replace``) with :func:`~repro.store.db.crash_point` sites before,
inside and after the write, so the crash suite can prove a killed
writer never publishes a torn shard.

Decoded arrays are kept per store handle in a :class:`ShardCache`,
so a replay that reads every point and then a few columns of one
sweep parses each shard's zip directory once.  A shard read whole
also keeps each point's finished scalar dict (:func:`point_rows`), so
a warm replay copies a dict per point instead of rebuilding it.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any, Dict, Hashable, List, Mapping, Optional, Sequence, Set, Tuple,
)

import numpy as np

from repro.store.db import crash_point

KIND_ABSENT = 0
KIND_FLOAT = 1
KIND_INT = 2
KIND_BOOL = 3
KIND_NONE = 4

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1

#: ``points.kind`` values for inline payloads.
PAYLOAD_JSON = "json"
PAYLOAD_PICKLE = "pickle"
#: ``points.kind`` once the value lives in a shard.
PAYLOAD_COLUMN = "column"
#: Shard + inline residual for the non-scalar members.
PAYLOAD_COLUMN_JSON = "column-json"
PAYLOAD_COLUMN_PICKLE = "column-pickle"
#: Every ``points.kind`` whose scalars live in a shard.
COLUMN_KINDS = (PAYLOAD_COLUMN, PAYLOAD_COLUMN_JSON, PAYLOAD_COLUMN_PICKLE)


def scalar_kind(value: Any) -> int:
    """The shard kind code for one metric value (0 = not shardable)."""
    if value is None:
        return KIND_NONE
    if isinstance(value, bool):  # before int: bool is an int subclass
        return KIND_BOOL
    if isinstance(value, int):
        return KIND_INT if _INT64_MIN <= value <= _INT64_MAX else KIND_ABSENT
    if isinstance(value, float):
        return KIND_FLOAT
    return KIND_ABSENT


def split_point(
    value: Any,
) -> Optional[Tuple[Dict[str, Any], Dict[str, Any]]]:
    """``(scalars, residual)`` for a shard-eligible point, else ``None``.

    Eligible means a plain str-keyed dict with at least one scalar
    member.  Scalars go to the shard columns; everything else —
    strings, nested dicts/lists, ints outside int64 — is the residual
    that stays inline next to the point row.
    """
    if type(value) is not dict:
        return None
    scalars: Dict[str, Any] = {}
    residual: Dict[str, Any] = {}
    for key, item in value.items():
        if not isinstance(key, str):
            return None
        if scalar_kind(item) != KIND_ABSENT:
            scalars[key] = item
        else:
            residual[key] = item
    if not scalars:
        return None
    return scalars, residual


def json_exact(value: Any) -> bool:
    """True when ``json.dumps``/``loads`` round-trips ``value``
    *exactly*: scalars, strings, lists and str-keyed dicts, to any
    depth.  Tuples (would come back as lists), non-str dict keys
    (would come back as strings) and third-party numerics fail."""
    if value is None or value is True or value is False:
        return True
    if type(value) in (int, float, str):
        return True
    if type(value) is list:
        return all(json_exact(item) for item in value)
    if type(value) is dict:
        return all(
            type(key) is str and json_exact(item)
            for key, item in value.items()
        )
    return False


def encode_value(value: Any) -> Tuple[str, bytes]:
    """``(kind, payload)`` for one point value: JSON when exact, else
    pickle.  JSON round-trips floats exactly (shortest-repr) and ints
    at arbitrary precision; ``NaN``/``Infinity`` survive."""
    if json_exact(value):
        return PAYLOAD_JSON, json.dumps(value, sort_keys=True).encode("utf-8")
    return PAYLOAD_PICKLE, pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def decode_value(kind: str, payload: bytes) -> Any:
    if kind == PAYLOAD_JSON:
        return json.loads(payload.decode("utf-8"))
    if kind == PAYLOAD_PICKLE:
        return pickle.loads(payload)
    raise ValueError(f"cannot decode inline payload of kind {kind!r}")


# -- shard building ----------------------------------------------------------


def build_shard_arrays(
    values: Sequence[Optional[Mapping[str, Any]]],
) -> Tuple[Dict[str, np.ndarray], List[str]]:
    """npz member arrays for one shard's point values, in order.

    ``values[i] is None`` marks a point that stays inline (not
    eligible); its kinds are all :data:`KIND_ABSENT` so the reader
    knows to fall back to the payload.  Returns ``(arrays, metrics)``.
    """
    count = len(values)
    metrics: List[str] = []
    seen = set()
    for value in values:
        if value is None:
            continue
        for metric in value:
            if metric not in seen:
                seen.add(metric)
                metrics.append(metric)
    metrics.sort()
    arrays: Dict[str, np.ndarray] = {}
    for metric in metrics:
        kinds = np.zeros(count, dtype=np.uint8)
        floats = np.full(count, np.nan, dtype=np.float64)
        ints = np.zeros(count, dtype=np.int64)
        for pos, value in enumerate(values):
            if value is None or metric not in value:
                continue
            item = value[metric]
            kind = scalar_kind(item)
            kinds[pos] = kind
            if kind == KIND_FLOAT:
                floats[pos] = item
            elif kind == KIND_INT:
                ints[pos] = item
            elif kind == KIND_BOOL:
                ints[pos] = int(item)
        arrays[f"k:{metric}"] = kinds
        arrays[f"f8:{metric}"] = floats
        arrays[f"i8:{metric}"] = ints
    return arrays, metrics


def write_shard(path: os.PathLike, arrays: Mapping[str, np.ndarray]) -> None:
    """Atomically write one npz shard (tmp + fsync + ``os.replace``).

    Crash sites: ``shard-mid-write`` (half the bytes on disk, file
    not yet published), ``shard-tmp-written`` (fully written, not yet
    published), ``shard-renamed`` (published, but the transaction
    referencing it has not committed — an orphan for gc).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    buffer = io.BytesIO()
    np.savez(buffer, **dict(arrays))
    data = buffer.getvalue()
    handle = tempfile.NamedTemporaryFile(
        "wb", dir=path.parent, suffix=".tmp", delete=False
    )
    try:
        with handle:
            half = len(data) // 2
            handle.write(data[:half])
            # Flushed, not fsynced: the fsync below covers every byte,
            # and a crash here still leaves a torn, unpublished file.
            handle.flush()
            crash_point("shard-mid-write")
            handle.write(data[half:])
            handle.flush()
            os.fsync(handle.fileno())
        crash_point("shard-tmp-written")
        os.replace(handle.name, path)
        crash_point("shard-renamed")
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


# -- shard reading -----------------------------------------------------------


def open_shard(path: os.PathLike) -> "np.lib.npyio.NpzFile":
    """Open one shard for member reads; close it after use.

    Raises on torn files.  The handle is opened here, not by
    ``np.load``, which leaks it when the zip directory does not parse.
    """
    handle = open(path, "rb")
    try:
        return np.lib.npyio.NpzFile(handle, own_fid=True, allow_pickle=False)
    except BaseException:
        handle.close()
        raise


def shard_metric_arrays(
    npz: "np.lib.npyio.NpzFile", metric: str
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``(kinds, floats, ints)`` for one metric, or ``None`` if the
    shard never saw it.  Reads exactly three zip members."""
    key = f"k:{metric}"
    if key not in npz.files:
        return None
    return npz[key], npz[f"f8:{metric}"], npz[f"i8:{metric}"]


#: Byte bound of one store handle's :class:`ShardCache`; past it the
#: least recently used shards are dropped.  64 MiB holds the arrays of
#: about 70 full shards (2048 points x 25 metrics x 17 bytes a point),
#: or about 14 with their point rows: more than one sweep replay or
#: results table reads.
SHARD_CACHE_BYTES = 64 * 2**20

#: Bytes charged per cached array on top of its data (the ndarray
#: object and the buffer it was read into), and per metric name of a
#: cached shard (the name and its slots in the entry's dict and set).
#: They keep the bound honest for a store of many tiny shards, where
#: this bookkeeping outweighs the data.
ARRAY_OVERHEAD_BYTES = 256
METRIC_OVERHEAD_BYTES = 256
#: Bytes charged per cached point row (the dict and its list slot) and
#: per metric value in it (the dict slot and the value object): upper
#: bounds of what ``tracemalloc`` measures for rows of 1 to 100 metrics
#: on CPython 3.11.
ROW_OVERHEAD_BYTES = 208
ROW_ITEM_BYTES = 64

MetricArrays = Tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass
class CachedShard:
    """One shard's decoded arrays: ``metrics`` names every metric the
    shard holds, ``arrays`` those decoded so far (a metric the file has
    no members for is left out), ``undecoded`` those not read yet.
    ``rows`` holds every point's finished scalar dict once a whole-point
    read has asked for them (see :meth:`ShardCache.rows`)."""

    metrics: Tuple[str, ...]
    arrays: Dict[str, MetricArrays] = field(default_factory=dict)
    undecoded: Set[str] = field(default_factory=set)
    rows: Optional[List[Dict[str, Any]]] = None
    nbytes: int = 0


class ShardCache:
    """Decoded shard arrays of one store handle, LRU-bounded in bytes.

    A key names one shard *row*: ``(shards.id, shards.created_at)``.
    Shard ids, sweep ids and shard filenames are all reused once their
    rows are deleted, but a row's key names one file content for as
    long as the row lives.  So an entry never goes stale, nothing has
    to invalidate entries, and a deleted shard's entry just ages out.

    >>> cache = ShardCache()
    >>> cache.max_bytes = 3000
    >>> kinds = np.full(4, KIND_FLOAT, dtype=np.uint8)
    >>> block = (kinds, np.zeros(4), np.zeros(4, dtype=np.int64))
    >>> entry = cache.add((1, 0.5), ("y", "z"), {"y": block})
    >>> entry.nbytes, sorted(entry.arrays), entry.undecoded
    (1348, ['y'], {'z'})
    >>> entry = cache.add((1, 0.5), ("y", "z"), {"z": None})
    >>> cache.rows((1, 0.5), entry)  # the file has no "z": absent
    [{'y': 0.0}, {'y': 0.0}, {'y': 0.0}, {'y': 0.0}]
    >>> entry.nbytes, cache.nbytes  # + 4 rows of one value: 4 * (208 + 64)
    (2436, 2436)
    >>> _ = cache.add((2, 0.7), ("y",), {"y": block})  # past 3000 bytes
    >>> cache.get((1, 0.5)) is None, len(cache)
    (True, 1)
    """

    def __init__(self) -> None:
        self.max_bytes = SHARD_CACHE_BYTES
        self.nbytes = 0
        self._entries: "OrderedDict[Hashable, CachedShard]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Optional[CachedShard]:
        """``key``'s entry, now the most recently used, or ``None``."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def add(
        self,
        key: Hashable,
        metrics: Sequence[str],
        arrays: Mapping[str, Optional[MetricArrays]],
    ) -> CachedShard:
        """Merge freshly decoded ``arrays`` into ``key``'s entry, then
        drop least recently used entries while over the bound.  Returns
        the entry, which the caller may use even if it was dropped."""
        entry = self._entries.pop(key, None)
        if entry is None:
            entry = CachedShard(tuple(metrics), undecoded=set(metrics))
        else:
            self.nbytes -= entry.nbytes
        for metric, block in arrays.items():
            entry.undecoded.discard(metric)
            if block is not None:
                entry.arrays[metric] = block
        self._insert(key, entry)
        return entry

    def rows(self, key: Hashable, entry: CachedShard) -> List[Dict[str, Any]]:
        """``entry``'s point rows, built on first use and then charged to
        it (``key``'s entry, with every metric decoded).  Callers read
        the rows and copy one to hand it out; they never change them."""
        if entry.rows is None:
            entry.rows = point_rows(entry.metrics, entry.arrays)
            if self._entries.get(key) is entry:  # still cached: charge them
                self.discard(key)
                self._insert(key, entry)
        return entry.rows

    def _insert(self, key: Hashable, entry: CachedShard) -> None:
        """(Re)insert ``entry`` as the most recently used, charged for
        what it holds now, then evict past the bound."""
        entry.nbytes = METRIC_OVERHEAD_BYTES * len(entry.metrics) + sum(
            ARRAY_OVERHEAD_BYTES + array.nbytes
            for block in entry.arrays.values() for array in block
        )
        if entry.rows is not None:
            entry.nbytes += ROW_OVERHEAD_BYTES * len(entry.rows)
            entry.nbytes += ROW_ITEM_BYTES * sum(map(len, entry.rows))
        self._entries[key] = entry
        self.nbytes += entry.nbytes
        while self.nbytes > self.max_bytes:
            _key, evicted = self._entries.popitem(last=False)
            self.nbytes -= evicted.nbytes

    def discard(self, key: Hashable) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self.nbytes -= entry.nbytes

    def clear(self) -> None:
        self._entries.clear()
        self.nbytes = 0


def point_rows(
    metrics: Sequence[str], arrays_by_metric: Mapping[str, MetricArrays]
) -> List[Dict[str, Any]]:
    """Every point's scalar metric dict, with exact types, keys in
    ``metrics`` order (absent metrics left out).  One ``tolist`` per
    array, not a numpy scalar per metric per point."""
    blocks = [
        (metric, *(array.tolist() for array in arrays_by_metric[metric]))
        for metric in metrics if metric in arrays_by_metric
    ]
    count = len(blocks[0][1]) if blocks else 0
    rows: List[Dict[str, Any]] = [{} for _ in range(count)]
    for metric, kinds, floats, ints in blocks:
        for row, kind, number, integer in zip(rows, kinds, floats, ints):
            if kind == KIND_FLOAT:
                row[metric] = number
            elif kind == KIND_INT:
                row[metric] = integer
            elif kind == KIND_BOOL:
                row[metric] = bool(integer)
            elif kind != KIND_ABSENT:
                row[metric] = None
    return rows


@dataclass
class MetricColumn:
    """One metric across every point of a finalized sweep, in spec
    point order.

    ``values`` is float64 (ints and bools cast; ``NaN`` where the
    metric is absent, ``None``, or the point was not shard-eligible);
    ``kinds`` preserves the exact per-point type for callers that
    need it; ``ints`` carries the unlossy int64/bool channel.
    """

    metric: str
    values: np.ndarray
    kinds: np.ndarray
    ints: np.ndarray

    def __len__(self) -> int:
        return len(self.values)

    def tolist(self) -> List[Any]:
        """Exact Python values (``None`` where absent)."""
        out: List[Any] = []
        for pos, kind in enumerate(self.kinds):
            kind = int(kind)
            if kind == KIND_FLOAT:
                out.append(float(self.values[pos]))
            elif kind == KIND_INT:
                out.append(int(self.ints[pos]))
            elif kind == KIND_BOOL:
                out.append(bool(self.ints[pos]))
            else:
                out.append(None)
        return out


def assemble_column(
    metric: str,
    blocks: Sequence[
        Tuple[int, int, Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]]
    ],
    n_points: int,
) -> MetricColumn:
    """Stitch per-shard ``(start, count, arrays)`` blocks into one
    :class:`MetricColumn` covering ``n_points`` grid positions."""
    kinds = np.zeros(n_points, dtype=np.uint8)
    values = np.full(n_points, np.nan, dtype=np.float64)
    ints = np.zeros(n_points, dtype=np.int64)
    for start, count, arrays in blocks:
        if arrays is None:
            continue
        shard_kinds, shard_floats, shard_ints = arrays
        stop = start + count
        kinds[start:stop] = shard_kinds
        ints[start:stop] = shard_ints
        block = shard_floats.copy()
        int_mask = shard_kinds == KIND_INT
        bool_mask = shard_kinds == KIND_BOOL
        block[int_mask] = shard_ints[int_mask].astype(np.float64)
        block[bool_mask] = shard_ints[bool_mask].astype(np.float64)
        values[start:stop] = block
    return MetricColumn(metric=metric, values=values, kinds=kinds, ints=ints)
