"""Unit tests for parameter types: domains, transforms, encodings."""

import math

import numpy as np
import pytest

from repro.exceptions import InvalidValueError, SpaceError
from repro.space import (
    BooleanParameter,
    CategoricalParameter,
    FloatParameter,
    IntegerParameter,
)


class TestFloatParameter:
    def test_bounds_roundtrip(self):
        p = FloatParameter("x", 2.0, 8.0)
        assert p.from_unit(0.0) == 2.0
        assert p.from_unit(1.0) == 8.0
        assert p.from_unit(0.5) == pytest.approx(5.0)
        assert p.to_unit(5.0) == pytest.approx(0.5)

    def test_default_is_midpoint(self):
        p = FloatParameter("x", 0.0, 10.0)
        assert p.default == pytest.approx(5.0)

    def test_explicit_default(self):
        p = FloatParameter("x", 0.0, 10.0, default=2.5)
        assert p.default == 2.5

    def test_log_scale_roundtrip(self):
        p = FloatParameter("x", 1.0, 10_000.0, log=True)
        assert p.from_unit(0.5) == pytest.approx(100.0)
        assert p.to_unit(100.0) == pytest.approx(0.5)

    def test_log_requires_positive_lower(self):
        with pytest.raises(SpaceError):
            FloatParameter("x", 0.0, 10.0, log=True)

    def test_invalid_bounds(self):
        with pytest.raises(SpaceError):
            FloatParameter("x", 5.0, 5.0)
        with pytest.raises(SpaceError):
            FloatParameter("x", 5.0, 1.0)
        with pytest.raises(SpaceError):
            FloatParameter("x", 0.0, math.inf)

    def test_quantization_snaps(self):
        p = FloatParameter("x", 0.0, 1.0, quantization=0.25)
        assert p.from_unit(0.4) in (0.25, 0.5)
        assert p.validate(0.75)
        assert not p.validate(0.3)

    def test_quantization_must_be_positive(self):
        with pytest.raises(SpaceError):
            FloatParameter("x", 0.0, 1.0, quantization=0.0)

    def test_validate_rejects_out_of_range_and_nonnumeric(self):
        p = FloatParameter("x", 0.0, 1.0)
        assert not p.validate(-0.1)
        assert not p.validate(1.1)
        assert not p.validate("0.5")
        assert not p.validate(True)  # bools are not floats here
        assert not p.validate(10**400)  # past the float range: out of range, not an OverflowError
        assert p.validate(0.0) and p.validate(1.0)

    def test_check_raises(self):
        p = FloatParameter("x", 0.0, 1.0)
        with pytest.raises(InvalidValueError):
            p.check(2.0)

    def test_to_unit_clips(self):
        p = FloatParameter("x", 0.0, 1.0)
        assert p.to_unit(5.0) == 1.0
        assert p.to_unit(-5.0) == 0.0

    def test_sampling_in_bounds(self, rng):
        p = FloatParameter("x", 3.0, 7.0, log=False)
        values = [p.sample(rng) for _ in range(200)]
        assert all(3.0 <= v <= 7.0 for v in values)
        # Uniform sampling should spread across the range.
        assert np.std(values) > 0.5

    def test_neighbor_stays_in_bounds(self, rng):
        p = FloatParameter("x", 0.0, 1.0)
        v = 0.5
        for _ in range(100):
            v = p.neighbor(v, rng, scale=0.3)
            assert 0.0 <= v <= 1.0

    def test_name_validation(self):
        with pytest.raises(SpaceError):
            FloatParameter("", 0.0, 1.0)


class TestIntegerParameter:
    def test_roundtrip(self):
        p = IntegerParameter("n", 1, 100)
        assert p.from_unit(0.0) == 1
        assert p.from_unit(1.0) == 100
        assert isinstance(p.from_unit(0.37), int)

    def test_log_scale(self):
        p = IntegerParameter("n", 1, 1024, log=True)
        assert p.from_unit(0.5) == 32

    def test_validate(self):
        p = IntegerParameter("n", 1, 10)
        assert p.validate(5)
        assert p.validate(5.0)  # integral float accepted
        assert not p.validate(5.5)
        assert not p.validate(0)
        assert not p.validate(11)
        assert not p.validate(True)

    def test_non_integer_bounds_rejected(self):
        with pytest.raises(SpaceError):
            IntegerParameter("n", 1.5, 10)

    def test_neighbor_always_moves_on_small_scale(self, rng):
        p = IntegerParameter("n", 1, 1000)
        moved = [p.neighbor(500, rng, scale=0.001) for _ in range(50)]
        assert all(v != 500 or True for v in moved)  # never raises
        assert any(v != 500 for v in moved)

    def test_default_is_int(self):
        p = IntegerParameter("n", 1, 100)
        assert isinstance(p.default, int)


class TestCategoricalParameter:
    def test_roundtrip_all_choices(self):
        p = CategoricalParameter("m", ["a", "b", "c", "d"])
        for choice in p.choices:
            assert p.from_unit(p.to_unit(choice)) == choice

    def test_from_unit_edges(self):
        p = CategoricalParameter("m", ["a", "b"])
        assert p.from_unit(0.0) == "a"
        assert p.from_unit(1.0) == "b"
        assert p.from_unit(0.49) == "a"
        assert p.from_unit(0.51) == "b"

    def test_needs_two_choices(self):
        with pytest.raises(SpaceError):
            CategoricalParameter("m", ["only"])

    def test_duplicate_choices_rejected(self):
        with pytest.raises(SpaceError):
            CategoricalParameter("m", ["a", "a"])

    def test_weights(self, rng):
        p = CategoricalParameter("m", ["rare", "common"], weights=[0.05, 0.95])
        draws = [p.sample(rng) for _ in range(400)]
        assert draws.count("common") > 300

    def test_bad_weights(self):
        with pytest.raises(SpaceError):
            CategoricalParameter("m", ["a", "b"], weights=[1.0])
        with pytest.raises(SpaceError):
            CategoricalParameter("m", ["a", "b"], weights=[-1.0, 2.0])

    def test_neighbor_never_repeats(self, rng):
        p = CategoricalParameter("m", ["a", "b", "c"])
        assert all(p.neighbor("a", rng) != "a" for _ in range(30))

    def test_index_of(self):
        p = CategoricalParameter("m", ["a", "b", "c"])
        assert p.index_of("b") == 1
        with pytest.raises(InvalidValueError):
            p.index_of("z")

    def test_unhashable_value(self):
        p = CategoricalParameter("m", ["a", "b"])
        assert not p.validate(["a"])

    def test_is_not_numeric(self):
        assert not CategoricalParameter("m", ["a", "b"]).is_numeric
        assert IntegerParameter("n", 0, 5).is_numeric


class TestBooleanParameter:
    def test_choices(self):
        p = BooleanParameter("flag")
        assert p.choices == [False, True]
        assert p.default is False

    def test_default_true(self):
        assert BooleanParameter("flag", default=True).default is True

    def test_validate(self):
        p = BooleanParameter("flag")
        assert p.validate(True) and p.validate(False)
        assert not p.validate(1)
        assert not p.validate("true")

    def test_roundtrip(self):
        p = BooleanParameter("flag")
        assert p.from_unit(p.to_unit(True)) is True
        assert p.from_unit(p.to_unit(False)) is False


class TestBatchedSampling:
    """`sample_many` / `from_unit_many` / `neighbor_many` must agree with
    their scalar counterparts: same value types, same bounds, same
    quantization — only drawn in one vectorized sweep."""

    def test_float_sample_many_types_and_bounds(self, rng):
        p = FloatParameter("x", 0.5, 4.5, quantization=0.5)
        values = p.sample_many(rng, 200)
        assert len(values) == 200
        assert all(type(v) is float for v in values)
        assert all(0.5 <= v <= 4.5 for v in values)
        assert all((v / 0.5) == int(v / 0.5) for v in values)  # on the grid

    def test_float_from_unit_many_matches_scalar(self):
        p = FloatParameter("x", 1.0, 1000.0, log=True)
        u = np.linspace(0.0, 1.0, 17)
        batch = p.from_unit_many(u)
        assert batch == [p.from_unit(float(ui)) for ui in u]

    def test_int_sample_many_matches_scalar_path_types(self, rng):
        p = IntegerParameter("n", 1, 64, log=True)
        values = p.sample_many(rng, 100)
        assert all(type(v) is int for v in values)
        assert all(1 <= v <= 64 for v in values)

    def test_int_neighbor_many_escapes_plateau(self, rng):
        # A tiny scale on a wide integer range rounds back to the same
        # value; the batched neighbor must still move, like the scalar one.
        p = IntegerParameter("n", 0, 10**6)
        neighbors = p.neighbor_many(500_000, rng, 50, 1e-9)
        assert all(v != 500_000 for v in neighbors)
        assert all(abs(v - 500_000) <= 1 for v in neighbors)

    def test_categorical_sample_many_respects_weights(self, rng):
        p = CategoricalParameter("m", ["a", "b", "c"], weights=[0.8, 0.1, 0.1])
        values = p.sample_many(rng, 500)
        assert values.count("a") > 300

    def test_categorical_neighbor_many_always_moves(self, rng):
        p = CategoricalParameter("m", ["a", "b", "c"])
        neighbors = p.neighbor_many("b", rng, 60, 0.3)
        assert set(neighbors) <= {"a", "c"}

    def test_neighbor_many_accepts_per_sample_scales(self, rng):
        p = FloatParameter("x", 0.0, 1.0)
        scales = np.array([1e-4] * 40 + [0.5] * 40)
        neighbors = np.asarray(p.neighbor_many(0.5, rng, 80, scales))
        assert np.abs(neighbors[:40] - 0.5).max() < 0.01
        assert np.abs(neighbors[40:] - 0.5).mean() > 0.05

    def test_sample_many_deterministic(self):
        p = FloatParameter("x", 0.0, 1.0)
        a = p.sample_many(np.random.default_rng(2), 16)
        b = p.sample_many(np.random.default_rng(2), 16)
        assert a == b
