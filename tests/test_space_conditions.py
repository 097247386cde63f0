"""Unit tests for conditional-activation rules."""

import pytest

from repro.exceptions import SpaceError
from repro.space import (
    BooleanParameter,
    CallableCondition,
    CategoricalParameter,
    ConfigurationSpace,
    EqualsCondition,
    FloatParameter,
    GreaterThanCondition,
    InCondition,
    LessThanCondition,
)


class TestConditionPredicates:
    def test_equals(self):
        c = EqualsCondition("child", "parent", "on")
        assert c.evaluate("on")
        assert not c.evaluate("off")

    def test_in(self):
        c = InCondition("child", "parent", ["a", "b"])
        assert c.evaluate("a") and c.evaluate("b")
        assert not c.evaluate("c")
        assert not c.evaluate(["a"])  # unhashable handled

    def test_greater_less(self):
        assert GreaterThanCondition("c", "p", 5).evaluate(6)
        assert not GreaterThanCondition("c", "p", 5).evaluate(5)
        assert LessThanCondition("c", "p", 5).evaluate(4)
        assert not LessThanCondition("c", "p", 5).evaluate(5)

    def test_callable(self):
        c = CallableCondition("c", "p", lambda v: v % 2 == 0)
        assert c.evaluate(4)
        assert not c.evaluate(3)

    def test_a_condition_its_parent_cannot_answer_is_refused(self):
        """A threshold on a categorical knob raises on every value it would be
        asked about, so the space refuses it where it is added."""
        space = ConfigurationSpace("refused")
        space.add(CategoricalParameter("mode", ["a", "b"]))
        space.add(FloatParameter("x", 0, 1))
        with pytest.raises(SpaceError, match="GreaterThanCondition.*'mode'"):
            space.add_condition(GreaterThanCondition("x", "mode", 0.5))
        assert space.conditions == [] and space.make({}).active == {"mode", "x"}

    def test_missing_parent_inactive(self):
        """A parent that is itself inactive activates nothing, whatever it holds."""
        space = ConfigurationSpace("missing")
        space.add(BooleanParameter("gate", default=False))
        space.add(CategoricalParameter("parent", [0, 1], default=1))
        space.add(FloatParameter("child", 0, 1))
        space.add_condition(EqualsCondition("child", "parent", 1))
        space.add_condition(EqualsCondition("parent", "gate", True))
        assert space.make({"gate": False, "parent": 1}).active == {"gate"}


class TestActivationResolution:
    def build_chain(self):
        """a -> b -> c: b active iff a, c active iff b."""
        space = ConfigurationSpace("chain")
        space.add(BooleanParameter("a"))
        space.add(BooleanParameter("b"))
        space.add(FloatParameter("c", 0, 1))
        space.add_condition(EqualsCondition("b", "a", True))
        space.add_condition(EqualsCondition("c", "b", True))
        return space

    def test_chain_all_off(self):
        space = self.build_chain()
        active = space.make({"a": False, "b": True, "c": 0.5}).active
        assert active == {"a"}

    def test_chain_partial(self):
        space = self.build_chain()
        active = space.make({"a": True, "b": False, "c": 0.5}).active
        assert active == {"a", "b"}

    def test_chain_full(self):
        space = self.build_chain()
        active = space.make({"a": True, "b": True, "c": 0.5}).active
        assert active == {"a", "b", "c"}

    def test_grandchild_inactive_when_parent_inactive(self):
        # c's condition on b is irrelevant when b itself is deactivated.
        space = self.build_chain()
        cfg = space.make({"a": False, "b": True, "c": 0.9})
        assert "b" not in cfg.active
        assert "c" not in cfg.active

    def test_multiple_conditions_are_anded(self):
        space = ConfigurationSpace("and")
        space.add(CategoricalParameter("engine", ["x", "y"]))
        space.add(IntegerLike := FloatParameter("level", 0, 10, default=5))
        space.add(FloatParameter("tuning", 0, 1))
        space.add_condition(EqualsCondition("tuning", "engine", "x"))
        space.add_condition(GreaterThanCondition("tuning", "level", 3))
        assert "tuning" in space.make({"engine": "x", "level": 5.0}).active
        assert "tuning" not in space.make({"engine": "x", "level": 1.0}).active
        assert "tuning" not in space.make({"engine": "y", "level": 5.0}).active

    def test_sampling_respects_activation(self):
        space = self.build_chain()
        space_default = space.make({})
        # default a=False -> everything pinned to defaults
        assert space_default["c"] == 0.5
