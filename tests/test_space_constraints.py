"""Unit tests for hard constraints."""

import numpy as np
import pytest

from repro.space import ConfigurationSpace, FloatParameter
from repro.space.constraints import (
    CallableConstraint,
    Constraint,
    LinearConstraint,
    RatioConstraint,
)


def holds(constraint: Constraint, values: dict) -> bool:
    """The constraint's answer for one row."""
    return bool(constraint.satisfied_many({k: [v] for k, v in values.items()}, np.ones(1, dtype=bool))[0])


class TestLinearConstraint:
    def test_satisfied(self):
        c = LinearConstraint({"a": 1.0, "b": 2.0}, bound=10.0)
        assert holds(c, {"a": 2, "b": 4})  # 2 + 8 = 10 <= 10
        assert not holds(c, {"a": 3, "b": 4})

    def test_negative_coefficients(self):
        # wal <= 0.5 * pool  <=>  wal - 0.5 pool <= 0
        c = LinearConstraint({"wal": 1.0, "pool": -0.5}, bound=0.0)
        assert holds(c, {"wal": 64, "pool": 128})
        assert not holds(c, {"wal": 65, "pool": 128})

    def test_missing_param_means_satisfied(self):
        c = LinearConstraint({"a": 1.0}, bound=0.0)
        assert holds(c, {"b": 100})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            LinearConstraint({}, 0.0)


class TestRatioConstraint:
    def test_mysql_chunk_rule(self):
        # chunk <= pool / instances — the tutorial's example.
        c = RatioConstraint("chunk", "pool", "instances")
        assert holds(c, {"chunk": 128, "pool": 1024, "instances": 8})
        assert not holds(c, {"chunk": 129, "pool": 1024, "instances": 8})

    def test_two_knob_form(self):
        c = RatioConstraint("small", "big")
        assert holds(c, {"small": 5, "big": 10})
        assert not holds(c, {"small": 11, "big": 10})

    def test_zero_divisor_infeasible(self):
        c = RatioConstraint("a", "b", "z")
        assert not holds(c, {"a": 1, "b": 10, "z": 0})

    def test_missing_param_satisfied(self):
        c = RatioConstraint("a", "b", "z")
        assert holds(c, {"a": 1, "b": 10})


class TestCallableConstraint:
    def test_predicate(self):
        c = CallableConstraint(lambda v: v.get("x", 0) + v.get("y", 0) < 5)
        assert holds(c, {"x": 1, "y": 2})
        assert not holds(c, {"x": 4, "y": 4})


def test_all_satisfied():
    space = ConfigurationSpace("both")
    space.add(FloatParameter("a", -100.0, 100.0))
    space.add_constraint(LinearConstraint({"a": 1.0}, 10.0))
    space.add_constraint(CallableConstraint(lambda v: v["a"] > 0))
    assert space.is_feasible({"a": 5})
    assert not space.is_feasible({"a": -1})
    assert not space.is_feasible({"a": 11})
    assert ConfigurationSpace("none").is_feasible({"a": 999})


def test_columns_answer_as_rows_do():
    """A marked row reads as it would alone; an unmarked one reads False."""
    columns = {"chunk": [128, 129, 64], "pool": [1024, 1024, 1024], "instances": [8, 8, 8]}
    ratio = RatioConstraint("chunk", "pool", "instances")
    linear = LinearConstraint({"chunk": 1.0}, 100.0)
    where = np.array([True, True, False])
    assert ratio.satisfied_many(columns, where).tolist() == [True, False, False]
    assert linear.satisfied_many(columns, np.ones(3, dtype=bool)).tolist() == [False, False, True]
