"""Space-linter tests: condition-graph edge cases, constraint analysis,
priors, serializability, and the all-rules golden report. What a space
cannot be is refused where it is built, not linted: the wire cases below
check that ``space_from_dict`` refuses each such description."""

from __future__ import annotations

import pytest

from repro.space import (
    CategoricalParameter,
    ConfigurationSpace,
    FloatParameter,
    IntegerParameter,
)
from repro.space.conditions import (
    CallableCondition,
    EqualsCondition,
    GreaterThanCondition,
    InCondition,
    LessThanCondition,
)
from repro.space.constraints import CallableConstraint, LinearConstraint, RatioConstraint
from repro.space.priors import NormalPrior
from repro.exceptions import SpaceError
from repro.space.serialize import space_from_dict, space_to_dict
from repro.staticcheck import SPACE_RULES, Severity, lint_space


def rules_of(report, *, active_only: bool = True):
    findings = report.active if active_only else list(report)
    return sorted({f.rule for f in findings})


def wire(*params, conditions=()):
    return {"parameters": list(params), "conditions": list(conditions)}


def unit(name, **extra):
    return {"type": "float", "name": name, "lower": 0.0, "upper": 1.0, **extra}


#: Wire descriptions of what a space cannot be, each with the defect the
#: codec's SpaceError names: refused before there is a space to lint.
WIRE_DEFECTS = {
    "duplicate name": (wire(unit("x"), unit("x", upper=2.0)), "x"),
    "malformed parameter": (wire({"type": "float"}), "malformed parameter"),
    "malformed condition": (wire(unit("x"), conditions=["nonsense"]), "condition must be a JSON mapping"),
    "condition cycle": (
        wire(unit("a"), unit("b"), conditions=[
            {"kind": "gt", "child": "a", "parent": "b", "threshold": 0.5},
            {"kind": "gt", "child": "b", "parent": "a", "threshold": 0.5},
        ]),
        "condition cycle",
    ),
    "unknown child": (
        wire(unit("a"), conditions=[{"kind": "equals", "child": "ghost", "parent": "a", "value": 0.5}]),
        "ghost",
    ),
    "unknown parent": (
        wire(unit("a"), conditions=[{"kind": "equals", "child": "a", "parent": "ghost", "value": 0.5}]),
        "ghost",
    ),
    "self-condition": (
        wire(unit("a"), conditions=[{"kind": "equals", "child": "a", "parent": "a", "value": 0.5}]),
        "cannot condition itself",
    ),
    "log over a non-positive bound": (wire(unit("lg", lower=-1.0, log=True)), "log-scale"),
    "log over a zero bound": (wire(unit("lg", log=True)), "log-scale"),
    "inverted bounds": (wire(unit("inv", lower=5.0)), "must be <"),
    "normal prior mean outside [0, 1]": (
        wire(unit("x", prior={"kind": "normal", "mean": 5.0, "std": 0.1})), "prior mean",
    ),
    "normal prior std not positive": (
        wire(unit("x", prior={"kind": "normal", "mean": 0.5, "std": -1.0})), "prior std",
    ),
    "no parameters": (wire(), "no parameters"),
}


def refused(*defects: str) -> None:
    for defect in defects:
        data, message = WIRE_DEFECTS[defect]
        with pytest.raises(SpaceError, match=message):
            space_from_dict(data)


def clean_space() -> ConfigurationSpace:
    space = ConfigurationSpace("clean", seed=0)
    space.add(FloatParameter("x", 0.0, 10.0, default=1.0))
    space.add(IntegerParameter("n", 1, 8, default=2))
    space.add(CategoricalParameter("mode", ["a", "b", "c"], default="a"))
    space.add_condition(EqualsCondition("n", "mode", "a"))
    return space


class TestHealthySpaces:
    def test_clean_space_has_no_findings(self):
        report = lint_space(clean_space())
        assert report.clean and report.ok
        assert list(report) == []

    def test_diamond_dependency_is_healthy(self):
        # root gates left and right; leaf needs both. Perfectly satisfiable:
        # the joint analysis must not confuse multiple parents with conflict.
        space = ConfigurationSpace("diamond")
        space.add(CategoricalParameter("root", ["on", "off"], default="on"))
        space.add(FloatParameter("left", 0.0, 1.0, default=0.5))
        space.add(FloatParameter("right", 0.0, 1.0, default=0.5))
        space.add(FloatParameter("leaf", 0.0, 1.0, default=0.5))
        space.add_condition(EqualsCondition("left", "root", "on"))
        space.add_condition(EqualsCondition("right", "root", "on"))
        space.add_condition(GreaterThanCondition("leaf", "left", 0.25))
        space.add_condition(LessThanCondition("leaf", "right", 0.75))
        report = lint_space(space)
        assert report.clean, report.format()

    def test_wire_dict_of_clean_space_is_clean(self):
        report = lint_space(space_from_dict(space_to_dict(clean_space())))
        assert report.clean, report.format()


class TestConditionRules:
    def test_sp201_equals_value_outside_parent_domain(self):
        space = ConfigurationSpace("s")
        space.add(FloatParameter("p", 0.0, 1.0, default=0.5))
        space.add(FloatParameter("c", 0.0, 1.0, default=0.5))
        space.add_condition(EqualsCondition("c", "p", 5.0))
        report = lint_space(space)
        assert "SP201" in rules_of(report)
        assert not report.ok

    def test_sp201_in_condition_with_no_valid_choice(self):
        space = ConfigurationSpace("s")
        space.add(CategoricalParameter("p", ["a", "b"], default="a"))
        space.add(FloatParameter("c", 0.0, 1.0, default=0.5))
        space.add_condition(InCondition("c", "p", ["x", "y"]))
        assert "SP201" in rules_of(lint_space(space))

    def test_sp201_threshold_above_parent_range(self):
        space = ConfigurationSpace("s")
        space.add(FloatParameter("p", 0.0, 1.0, default=0.5))
        space.add(FloatParameter("c", 0.0, 1.0, default=0.5))
        space.add_condition(GreaterThanCondition("c", "p", 2.0))
        assert "SP201" in rules_of(lint_space(space))

    def test_sp202_condition_that_always_holds(self):
        space = ConfigurationSpace("s")
        space.add(FloatParameter("p", 5.0, 9.0, default=6.0))
        space.add(FloatParameter("c", 0.0, 1.0, default=0.5))
        space.add_condition(GreaterThanCondition("c", "p", 1.0))
        report = lint_space(space)
        assert rules_of(report) == ["SP202"]
        assert report.ok and not report.clean  # warning, not error

    def test_sp203_chained_thresholds_jointly_exclude_all_values(self):
        # x > 6 AND x < 4: each condition alone is satisfiable, the
        # conjunction is empty — the headline case from the issue.
        space = ConfigurationSpace("s")
        space.add(FloatParameter("p", 0.0, 10.0, default=5.0))
        space.add(FloatParameter("c", 0.0, 1.0, default=0.5))
        space.add_condition(GreaterThanCondition("c", "p", 6.0))
        space.add_condition(LessThanCondition("c", "p", 4.0))
        report = lint_space(space)
        assert "SP203" in rules_of(report)
        assert not report.ok

    def test_sp203_integer_gap_between_strict_thresholds(self):
        # n > 3 AND n < 4 leaves no integer even though 3 < 4.
        space = ConfigurationSpace("s")
        space.add(IntegerParameter("p", 1, 10, default=5))
        space.add(FloatParameter("c", 0.0, 1.0, default=0.5))
        space.add_condition(GreaterThanCondition("c", "p", 3.0))
        space.add_condition(LessThanCondition("c", "p", 4.0))
        assert "SP203" in rules_of(lint_space(space))

    def test_satisfiable_chained_thresholds_stay_clean(self):
        space = ConfigurationSpace("s")
        space.add(FloatParameter("p", 0.0, 10.0, default=5.0))
        space.add(FloatParameter("c", 0.0, 1.0, default=0.5))
        space.add_condition(GreaterThanCondition("c", "p", 2.0))
        space.add_condition(LessThanCondition("c", "p", 8.0))
        assert lint_space(space).clean

    def test_sp203_pins_outside_threshold_band(self):
        # mode must equal "a" AND numeric-equals pin excluded by a threshold.
        space = ConfigurationSpace("s")
        space.add(FloatParameter("p", 0.0, 10.0, default=5.0))
        space.add(FloatParameter("c", 0.0, 1.0, default=0.5))
        space.add_condition(EqualsCondition("c", "p", 2.0))
        space.add_condition(GreaterThanCondition("c", "p", 5.0))
        assert "SP203" in rules_of(lint_space(space))

    def test_sp203_transitive_death_through_diamond(self):
        # b is dead (unsatisfiable condition); d needs b AND c, so d dies
        # transitively even though its own conditions are fine.
        space = ConfigurationSpace("s")
        space.add(CategoricalParameter("a", ["x", "y"], default="x"))
        space.add(FloatParameter("b", 0.0, 1.0, default=0.5))
        space.add(FloatParameter("c", 0.0, 1.0, default=0.5))
        space.add(FloatParameter("d", 0.0, 1.0, default=0.5))
        space.add_condition(EqualsCondition("b", "a", "nope"))  # unsatisfiable
        space.add_condition(EqualsCondition("c", "a", "x"))
        space.add_condition(GreaterThanCondition("d", "b", 0.2))
        space.add_condition(GreaterThanCondition("d", "c", 0.2))
        report = lint_space(space)
        subjects = {(f.rule, f.subject) for f in report.active}
        assert ("SP201", "b") in subjects
        assert ("SP203", "d") in subjects

    def test_sp401_callable_condition_flagged_not_killed(self):
        space = ConfigurationSpace("s")
        space.add(FloatParameter("p", 0.0, 1.0, default=0.5))
        space.add(FloatParameter("c", 0.0, 1.0, default=0.5))
        space.add_condition(CallableCondition("c", "p", lambda v: v > 0.5))
        report = lint_space(space)
        assert rules_of(report) == ["SP401"]
        assert report.ok  # undecidable, so no false deadness claim

    def test_sp204_cycle_via_wire_dict(self):
        refused("condition cycle")

    def test_sp205_and_sp206_via_wire_dict(self):
        refused("unknown child", "unknown parent", "self-condition")


class TestConstraintRules:
    def base(self) -> ConfigurationSpace:
        space = ConfigurationSpace("s")
        space.add(FloatParameter("x", 0.0, 10.0, default=1.0))
        space.add(FloatParameter("y", 0.0, 10.0, default=1.0))
        return space

    def test_sp301_unsatisfiable_linear(self):
        space = self.base()
        space.add_constraint(LinearConstraint({"x": 1.0, "y": 1.0}, bound=-1.0, name="bad"))
        report = lint_space(space)
        assert "SP301" in rules_of(report) and not report.ok

    def test_sp302_vacuous_linear(self):
        space = self.base()
        space.add_constraint(LinearConstraint({"x": 1.0, "y": 1.0}, bound=100.0, name="loose"))
        report = lint_space(space)
        assert "SP302" in rules_of(report) and report.ok

    def test_sp303_unknown_param(self):
        space = self.base()
        space.add_constraint(LinearConstraint({"ghost": 1.0}, bound=5.0, name="ghostly"))
        assert "SP303" in rules_of(lint_space(space))

    def test_sp304_non_numeric_param(self):
        space = self.base()
        space.add(CategoricalParameter("mode", ["a", "b"], default="a"))
        space.add_constraint(LinearConstraint({"mode": 1.0}, bound=5.0, name="arith"))
        assert "SP304" in rules_of(lint_space(space))

    def test_sp305_duplicate_constraint(self):
        space = self.base()
        space.add_constraint(LinearConstraint({"x": 1.0}, bound=5.0, name="one"))
        space.add_constraint(LinearConstraint({"x": 1.0}, bound=5.0, name="two"))
        assert "SP305" in rules_of(lint_space(space))

    def test_sp306_contradictory_pair(self):
        # x <= 1 and -x <= -3 (i.e. x >= 3): the band (3, 1] is empty.
        space = self.base()
        space.add_constraint(LinearConstraint({"x": 1.0}, bound=1.0, name="upper"))
        space.add_constraint(LinearConstraint({"x": -1.0}, bound=-3.0, name="lower"))
        report = lint_space(space)
        assert "SP306" in rules_of(report) and not report.ok

    def test_compatible_pair_is_not_contradictory(self):
        space = self.base()
        space.add_constraint(LinearConstraint({"x": 1.0}, bound=5.0, name="upper"))
        space.add_constraint(LinearConstraint({"x": -1.0}, bound=-2.0, name="lower"))
        assert "SP306" not in rules_of(lint_space(space))

    def test_sp307_infeasible_default(self):
        space = ConfigurationSpace("s")
        space.add(FloatParameter("x", 0.0, 10.0, default=9.0))
        space.add_constraint(LinearConstraint({"x": 1.0}, bound=5.0, name="cap"))
        assert "SP307" in rules_of(lint_space(space))

    def test_sp301_impossible_ratio(self):
        space = ConfigurationSpace("s")
        space.add(FloatParameter("num", 100.0, 200.0, default=150.0))
        space.add(FloatParameter("den", 1.0, 2.0, default=1.5))
        space.add_constraint(RatioConstraint("num", "den", name="ratio"))
        assert "SP301" in rules_of(lint_space(space))

    def test_sp402_every_constraint_warned_nonserializable(self):
        space = self.base()
        space.add_constraint(CallableConstraint(lambda v: v["x"] < v["y"], name="cb"))
        space.add_constraint(LinearConstraint({"x": 1.0, "y": -1.0}, 0.0, name="lin"))
        space.add_constraint(RatioConstraint("x", "y", name="ratio"))
        report = lint_space(space)
        findings = [f for f in report.active if f.rule == "SP402"]
        assert len(findings) == 1 and findings[0].subject == "cb"  # Linear and Ratio serialise


class TestNameAndPriorRules:
    def test_sp102_lookalike_names(self):
        space = ConfigurationSpace("s")
        space.add(FloatParameter("max_size", 0.0, 1.0, default=0.5))
        space.add(FloatParameter("MaxSize", 0.0, 1.0, default=0.5))
        assert "SP102" in rules_of(lint_space(space))

    def test_sp103_empty_space(self):
        assert rules_of(lint_space(ConfigurationSpace("empty"))) == ["SP103"]

    def test_sp101_duplicate_name_via_dict(self):
        refused("duplicate name")

    def test_sp503_and_sp504_via_dict(self):
        refused("log over a non-positive bound", "log over a zero bound", "inverted bounds")

    def test_sp501_normal_prior_outside_unit_range_via_dict(self):
        refused("normal prior mean outside [0, 1]", "normal prior std not positive")

    def test_sp502_prior_pins_an_integer_knob(self):
        space = ConfigurationSpace("s")
        space.add(IntegerParameter("n", 1, 100, default=50,
                                   prior=NormalPrior(0.5, 1e-4)))
        assert "SP502" in rules_of(lint_space(space))

    def test_sp104_malformed_dict_entries(self):
        refused("malformed parameter", "malformed condition", "no parameters")


class TestReportMechanics:
    def test_ignore_suppresses_but_counts(self):
        space = ConfigurationSpace("s")
        space.add(FloatParameter("x", 0.0, 10.0, default=1.0))
        space.add_constraint(LinearConstraint({"x": 1.0}, bound=100.0, name="loose"))
        space.add_constraint(CallableConstraint(lambda v: v["x"] < 50.0, name="opaque"))
        report = lint_space(space, ignore=["SP302", "sp402"])
        assert report.clean and report.ok
        assert {f.rule for f in report.suppressed} == {"SP302", "SP402"}

    def test_unknown_ignore_rule_rejected(self):
        with pytest.raises(SpaceError, match="SP999"):
            lint_space(clean_space(), ignore=["SP999"])

    def test_report_is_json_safe_and_formatted(self):
        space = ConfigurationSpace("s")
        space.add(FloatParameter("p", 0.0, 1.0, default=0.5))
        space.add(FloatParameter("c", 0.0, 1.0, default=0.5))
        space.add_condition(EqualsCondition("c", "p", 9.0))
        report = lint_space(space)
        data = report.to_dict()
        assert data["target"] == "s" and data["findings"]
        text = report.format()
        assert "SP201" in text and "ERROR" in text

    def test_golden_all_object_rules(self):
        """One pathological space triggers every object-level rule at once;
        the triggered rule-id set is the golden value."""
        space = ConfigurationSpace("monster")
        space.add(FloatParameter("x", 0.0, 10.0, default=9.0))
        space.add(FloatParameter("y", 0.0, 10.0, default=1.0))
        space.add(FloatParameter("Y", 0.0, 1.0, default=0.5))          # SP102
        space.add(CategoricalParameter("mode", ["a", "b"], default="a"))
        space.add(FloatParameter("dead", 0.0, 1.0, default=0.5))
        space.add(FloatParameter("orphan", 0.0, 1.0, default=0.5))
        space.add(FloatParameter("cb", 0.0, 1.0, default=0.5))
        space.add(IntegerParameter("pinned", 1, 100, default=50,
                                   prior=NormalPrior(0.5, 1e-4)))       # SP502
        space.add_condition(EqualsCondition("dead", "mode", "zzz"))     # SP201
        space.add_condition(GreaterThanCondition("orphan", "dead", 0.5))  # SP203
        space.add_condition(LessThanCondition("y", "x", 100.0))         # SP202
        space.add_condition(CallableCondition("cb", "x", lambda v: v > 1))  # SP401
        space.add_constraint(LinearConstraint({"x": 1.0, "y": 1.0}, -5.0, name="never"))  # SP301
        space.add_constraint(LinearConstraint({"y": 1.0}, 1000.0, name="loose"))  # SP302
        space.add_constraint(LinearConstraint({"ghost": 1.0}, 1.0, name="ghostly"))  # SP303
        space.add_constraint(LinearConstraint({"mode": 1.0}, 1.0, name="arith"))  # SP304
        space.add_constraint(LinearConstraint({"y": 1.0}, 1000.0, name="loose2"))  # SP305
        space.add_constraint(LinearConstraint({"x": 1.0}, 1.0, name="hi"))
        space.add_constraint(LinearConstraint({"x": -1.0}, -3.0, name="lo"))  # SP306 + SP307
        space.add_constraint(CallableConstraint(lambda v: True, name="opaque"))  # SP402
        report = lint_space(space)
        assert rules_of(report) == [
            "SP102", "SP201", "SP202", "SP203", "SP301", "SP302", "SP303",
            "SP304", "SP305", "SP306", "SP307", "SP401", "SP402", "SP502",
        ]
        # Severities come from the shared catalog, never ad hoc.
        for f in report:
            assert f.severity is SPACE_RULES[f.rule][0]

    def test_golden_all_structural_rules_via_dict(self):
        """Every wire description of what a space cannot be is refused by
        the codec, each defect alone and all of them at once."""
        refused(*WIRE_DEFECTS)
        monster = wire(*(p for data, _ in WIRE_DEFECTS.values() for p in data["parameters"]),
                       conditions=[c for data, _ in WIRE_DEFECTS.values() for c in data["conditions"]])
        with pytest.raises(SpaceError):
            space_from_dict(monster)

    def test_every_rule_id_documented_in_catalog(self):
        for rule, (severity, desc) in SPACE_RULES.items():
            assert rule.startswith("SP") and isinstance(severity, Severity) and desc
