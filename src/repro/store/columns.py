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
"""

from __future__ import annotations

import io
import json
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

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


def is_scalar_dict(value: Any) -> bool:
    """True when ``value`` is a dict of str -> float/int/bool/None."""
    if type(value) is not dict:
        return False
    for key, item in value.items():
        if not isinstance(key, str):
            return False
        if item is None or isinstance(item, (bool, float, int)):
            continue
        return False
    return True


def is_column_eligible(value: Any) -> bool:
    """True when every metric of ``value`` fits the shard arrays
    (scalar dict whose ints all fit int64) — i.e. the point needs no
    residual payload at all."""
    if not is_scalar_dict(value):
        return False
    return all(
        scalar_kind(item) != KIND_ABSENT for item in value.values()
    )


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
            handle.flush()
            os.fsync(handle.fileno())
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


def point_from_arrays(
    arrays_by_metric: Mapping[
        str, Tuple[np.ndarray, np.ndarray, np.ndarray]
    ],
    pos: int,
) -> Dict[str, Any]:
    """Rebuild one point's metric dict from shard arrays (exact types)."""
    value: Dict[str, Any] = {}
    for metric, (kinds, floats, ints) in arrays_by_metric.items():
        kind = int(kinds[pos])
        if kind == KIND_ABSENT:
            continue
        if kind == KIND_FLOAT:
            value[metric] = float(floats[pos])
        elif kind == KIND_INT:
            value[metric] = int(ints[pos])
        elif kind == KIND_BOOL:
            value[metric] = bool(ints[pos])
        else:
            value[metric] = None
    return value


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

    @property
    def present(self) -> np.ndarray:
        return self.kinds != KIND_ABSENT

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
