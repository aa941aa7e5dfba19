"""Columnar codec: exact round-trips, shard files, lazy column reads.

Byte-identity with the pickle path rests on this layer: every value
the store hands back must ``==`` what the runner returned, whether it
travelled as canonical JSON, pickle, or split across shard arrays
plus a residual payload.
"""

import math
import pickle

import numpy as np
import pytest

from repro.store import columns as col


SCALARS = [0, 1, -7, 2**62, -(2**62), 0.0, -0.0, 1.5, math.pi,
           float("inf"), True, False, None]


class TestCodec:
    @pytest.mark.parametrize("value", SCALARS)
    def test_scalar_kinds_round_trip_through_arrays(self, value):
        arrays, metrics = col.build_shard_arrays([{"m": value}])
        assert metrics == ["m"]
        [rebuilt] = col.point_rows(
            metrics, {"m": (arrays["k:m"], arrays["f8:m"], arrays["i8:m"])}
        )
        assert rebuilt == {"m": value}
        assert type(rebuilt["m"]) is type(value)

    def test_nan_round_trips_as_float(self):
        arrays, metrics = col.build_shard_arrays([{"m": float("nan")}])
        [rebuilt] = col.point_rows(
            metrics, {"m": (arrays["k:m"], arrays["f8:m"], arrays["i8:m"])}
        )
        assert math.isnan(rebuilt["m"]) and type(rebuilt["m"]) is float

    def test_json_payload_is_exact(self):
        value = {"pi": math.pi, "n": 10**40, "nan": float("nan"),
                 "inf": float("-inf"), "flag": True, "none": None,
                 "label": "x", "nested": {"deep": [1, 2.5, "s"]}}
        kind, payload = col.encode_value(value)
        assert kind == col.PAYLOAD_JSON
        decoded = col.decode_value(kind, payload)
        assert decoded["pi"] == math.pi
        assert decoded["n"] == 10**40
        assert math.isnan(decoded["nan"])
        assert decoded["inf"] == float("-inf")
        assert decoded["flag"] is True
        assert decoded["none"] is None
        assert decoded["nested"] == {"deep": [1, 2.5, "s"]}

    @pytest.mark.parametrize("value", [
        ("a", "tuple"),                 # tuples come back as lists
        {"k": (1, 2)},                  # ... even nested
        {1: "non-str key"},             # int keys come back as strings
        {"arr": np.float64(1.0)},       # third-party numerics
        {"s": {1, 2}},                  # sets are not JSON at all
        object(),
    ])
    def test_non_json_exact_values_fall_back_to_pickle(self, value):
        kind, payload = col.encode_value(value)
        assert kind == col.PAYLOAD_PICKLE
        if type(value) is not object:  # bare object() has no useful ==
            assert col.decode_value(kind, payload) == value

    def test_split_point_sends_scalars_to_columns(self):
        value = {"y": 1.5, "n": 3, "flag": False, "none": None,
                 "label": "s", "nested": {"a": 1}, "big": 2**80}
        scalars, residual = col.split_point(value)
        assert scalars == {"y": 1.5, "n": 3, "flag": False, "none": None}
        assert residual == {"label": "s", "nested": {"a": 1}, "big": 2**80}

    @pytest.mark.parametrize("value", [
        "not a dict", [1, 2], 42,
        {"only": "strings"},            # no scalar member at all
        {1: 2.0},                       # non-str key
    ])
    def test_split_point_rejects_ineligible_values(self, value):
        assert col.split_point(value) is None

    def test_int64_boundaries(self):
        assert col.scalar_kind(2**63 - 1) == col.KIND_INT
        assert col.scalar_kind(-(2**63)) == col.KIND_INT
        assert col.scalar_kind(2**63) == col.KIND_ABSENT
        assert col.scalar_kind(-(2**63) - 1) == col.KIND_ABSENT


class TestShardFiles:
    def test_shard_round_trip_multi_point(self, tmp_path):
        values = [
            {"y": 0.5, "n": 1},
            None,                       # ineligible point: kinds stay 0
            {"y": 1.5, "n": 3, "extra": True},
        ]
        arrays, metrics = col.build_shard_arrays(values)
        assert metrics == ["extra", "n", "y"]
        path = tmp_path / "shard.npz"
        col.write_shard(path, arrays)
        npz = col.open_shard(path)
        by_metric = {
            m: col.shard_metric_arrays(npz, m) for m in metrics
        }
        assert col.point_rows(metrics, by_metric) == [
            {"y": 0.5, "n": 1}, {}, {"y": 1.5, "n": 3, "extra": True},
        ]

    def test_unknown_metric_reads_none(self, tmp_path):
        arrays, _ = col.build_shard_arrays([{"y": 1.0}])
        path = tmp_path / "shard.npz"
        col.write_shard(path, arrays)
        assert col.shard_metric_arrays(col.open_shard(path), "nope") is None

    def test_column_read_never_unpickles(self, tmp_path, monkeypatch):
        arrays, _ = col.build_shard_arrays(
            [{"y": float(i)} for i in range(32)]
        )
        path = tmp_path / "shard.npz"
        col.write_shard(path, arrays)

        def _forbidden(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("column read attempted to unpickle")

        monkeypatch.setattr(pickle, "loads", _forbidden)
        monkeypatch.setattr(pickle, "load", _forbidden)
        npz = col.open_shard(path)
        kinds, floats, _ints = col.shard_metric_arrays(npz, "y")
        assert floats.tolist() == [float(i) for i in range(32)]
        assert (kinds == col.KIND_FLOAT).all()

    def test_write_is_atomic_no_tmp_left_behind(self, tmp_path):
        arrays, _ = col.build_shard_arrays([{"y": 1.0}])
        path = tmp_path / "shard.npz"
        col.write_shard(path, arrays)
        col.write_shard(path, arrays)  # overwrite is atomic too
        assert [p.name for p in tmp_path.iterdir()] == ["shard.npz"]


class TestAssembleColumn:
    def test_blocks_stitch_in_grid_order(self):
        a1, _ = col.build_shard_arrays([{"y": 1.0}, {"y": 2}])
        a2, _ = col.build_shard_arrays([None, {"y": True}])
        column = col.assemble_column(
            "y",
            [
                (0, 2, (a1["k:y"], a1["f8:y"], a1["i8:y"])),
                (2, 2, (a2["k:y"], a2["f8:y"], a2["i8:y"])),
            ],
            n_points=4,
        )
        assert column.tolist() == [1.0, 2, None, True]
        assert column.values[0] == 1.0 and column.values[1] == 2.0
        assert np.isnan(column.values[2]) and column.values[3] == 1.0
        assert column.kinds.tolist() == [
            col.KIND_FLOAT, col.KIND_INT, col.KIND_ABSENT, col.KIND_BOOL
        ]
        assert len(column) == 4

    def test_missing_shard_block_reads_absent(self):
        column = col.assemble_column("y", [(0, 3, None)], n_points=3)
        assert column.tolist() == [None, None, None]
        assert (column.kinds == col.KIND_ABSENT).all()
