"""A :class:`SweepSpec` is an immutable value whose memoised identity
— digest, point seeds and point keys — equals the unmemoised formulas.

The formulas are written out here, independently of the memo: a stored
``spec_digest`` or point key that changed would orphan every result a
store already holds.
"""

import dataclasses
import hashlib
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.sweep import (
    SweepResult,
    SweepSpec,
    canonical_bytes,
    canonical_params,
)
from repro.sim.rng import derive_seed

scalars = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
    st.booleans(),
    st.none(),
)
values = st.one_of(scalars, st.lists(scalars, max_size=2))
names = st.text(alphabet="abcdefgh", min_size=1, max_size=3)


@st.composite
def specs(draw):
    constants = draw(st.dictionaries(
        st.text(alphabet="uvw", min_size=1, max_size=2), values, max_size=2
    ))
    grid = {}
    if draw(st.booleans()):
        grid["axes"] = draw(st.dictionaries(
            names, st.lists(values, min_size=1, max_size=3),
            min_size=1, max_size=3,
        ))
    else:
        grid["explicit"] = draw(st.lists(
            st.dictionaries(names, values, max_size=3),
            min_size=1, max_size=4,
        ))
    return SweepSpec(
        draw(names),
        constants=constants,
        replications=draw(st.integers(min_value=1, max_value=3)),
        base_seed=draw(st.integers(min_value=0, max_value=2**63)),
        seed_mode=draw(st.sampled_from(["derived", "shared"])),
        **grid,
    )


def expected_seed(spec, params, replication):
    if spec.seed_mode == "shared":
        if replication == 0:
            return spec.base_seed
        return derive_seed(
            spec.base_seed, f"sweep:{spec.experiment_id}:rep{replication}"
        )
    return derive_seed(
        spec.base_seed,
        f"sweep:{spec.experiment_id}:{canonical_params(params)}"
        f":rep{replication}",
    )


def expected_digest(spec):
    return hashlib.sha256(canonical_bytes(spec.to_dict())).hexdigest()[:16]


@given(spec=specs())
@settings(max_examples=150, deadline=None)
def test_memoised_identity_equals_the_formulas(spec):
    for point in spec.points():
        assert point.seed == expected_seed(
            spec, point.params, point.replication
        )
        assert point.key() == (
            f"{canonical_params(point.params)}:rep{point.replication}"
        )
    assert spec.digest == expected_digest(spec)
    again = SweepSpec.from_dict(spec.to_dict())
    assert again.digest == spec.digest == expected_digest(again)
    assert again.points() == spec.points()


@given(spec=specs())
@settings(max_examples=50, deadline=None)
def test_points_calls_share_no_params(spec):
    first, second = spec.points(), spec.points()
    assert first == second
    for a, b in zip(first, second):
        assert a.params is not b.params
    assert len({id(point.params) for point in first}) == len(first)
    first[0].params["mutated"] = 1
    assert spec.points() == second


def test_constructor_arguments_do_not_reach_the_spec():
    axes = {"x": [1, 2], "y": [{"deep": [1]}]}
    constants = {"c": [1, 2]}
    explicit = [{"x": 1, "nested": {"k": [1]}}]
    by_axes = SweepSpec("own", axes=axes, constants=constants)
    by_rows = SweepSpec("own", explicit=explicit)
    before = (
        by_axes.digest, by_axes.points(), by_axes.to_dict(),
        by_rows.digest, by_rows.points(), by_rows.to_dict(),
    )
    axes["x"].append(3)
    axes["y"][0]["deep"].append(2)
    axes["z"] = [0]
    constants["c"].append(3)
    constants["d"] = 4
    explicit[0]["x"] = 2
    explicit[0]["nested"]["k"].append(2)
    explicit.append({"x": 5})
    fresh_axes = SweepSpec("own", axes=axes, constants=constants)
    assert fresh_axes.digest != by_axes.digest
    after = (
        by_axes.digest, by_axes.points(), by_axes.to_dict(),
        by_rows.digest, by_rows.points(), by_rows.to_dict(),
    )
    assert after == before
    assert len(by_axes) == 2 and len(by_rows) == 1


def test_a_spec_is_frozen():
    spec = SweepSpec("frozen", axes={"x": [1, 2]}, constants={"c": 0})
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.base_seed = 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.axes = {"x": [3]}
    with pytest.raises(TypeError):
        spec.axes["x"] = (3,)
    with pytest.raises(TypeError):
        spec.constants.update(d=1)
    explicit = SweepSpec("frozen", explicit=[{"x": 1}])
    with pytest.raises(TypeError):
        explicit.explicit[0]["x"] = 2
    assert spec.to_dict() == {
        "experiment_id": "frozen",
        "axes": {"x": [1, 2]},
        "constants": {"c": 0},
    }


@given(spec=specs())
@settings(max_examples=30, deadline=None)
def test_pickle_keeps_the_digest_and_points(spec):
    digest, points = spec.digest, spec.points()
    copy = pickle.loads(pickle.dumps(spec))
    assert copy == spec
    assert copy.digest == digest
    assert copy.points() == points
    assert [p.key() for p in copy.points()] == [p.key() for p in points]
    result = SweepResult(
        spec=spec, points=points, values=[p.seed for p in points],
        workers=1,
    )
    restored = pickle.loads(pickle.dumps(result))
    assert restored.spec.digest == digest
    assert restored.points == points
    assert [p.key() for p in restored.points] == [p.key() for p in points]
    assert canonical_bytes(restored) == canonical_bytes(result)


def test_memo_stays_out_of_a_pickled_spec():
    spec = SweepSpec("lean", axes={"x": list(range(50))})
    lean = len(pickle.dumps(spec))
    spec.points()
    assert spec.digest
    assert len(pickle.dumps(spec)) == lean
