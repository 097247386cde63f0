"""The space rules: activation under conditions and feasibility under constraints.

``tests/data/space_rules.json`` (written by ``make_candidate_pools.py``)
records what ``make`` (with and without constraint checking) and
``is_feasible`` answer for fixed and seeded value rows on ``dbms``, ``nginx``
and the synthetic space — the values and inactive knobs, or the class of the
exception — with every ``activation_patterns()`` and the synthetic space's
``grid()``. Each answer here must equal the recorded one. The properties
below hold ``activation_patterns()`` to its promise on random condition
graphs: it lists exactly the patterns of the full lattice.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codec import config_from_values
from repro.space import (
    CategoricalParameter,
    ConfigurationSpace,
    EqualsCondition,
    FloatParameter,
    GreaterThanCondition,
    InCondition,
    IntegerParameter,
    LessThanCondition,
)

from .data.make_candidate_pools import GRID_POINTS, RULES_PATH, make_synthetic_space, outcome, rule_spaces

RECORDED = json.loads(RULES_PATH.read_text())
SPACES = rule_spaces()


@pytest.mark.parametrize("name", sorted(SPACES))
def test_make_and_is_feasible_match_the_recording(name):
    space = SPACES[name]
    for row in RECORDED[name]["make"]:
        values = row["values"]
        assert outcome(space, lambda: space.make(values)) == row["make"], row["label"]
        assert outcome(space, lambda: space.make(values, check_constraints=False)) == row["make_unchecked"], row["label"]
        assert outcome(space, lambda: space.is_feasible(values)) == row["is_feasible"], row["label"]


@pytest.mark.parametrize("name", sorted(SPACES))
def test_every_malformed_value_is_an_invalid_value_on_the_wire_too(name):
    """Each recorded row ``make`` refuses whatever the constraints (an unknown
    name aside: the codec drops it) is an ``InvalidValueError``, and
    ``config_from_values`` — how a told configuration comes in — raises just
    that, with no catch of its own."""
    space = SPACES[name]
    rows = [row for row in RECORDED[name]["make"]
            if row["make_unchecked"].get("error") not in (None, "UnknownParameterError")]
    assert rows and {row["make_unchecked"]["error"] for row in rows} == {"InvalidValueError"}
    for row in rows:
        assert outcome(space, lambda: config_from_values(row["values"], space)) == row["make_unchecked"], row["label"]


@pytest.mark.parametrize("name", sorted(SPACES))
def test_activation_patterns_match_the_recording(name):
    assert [sorted(p) for p in SPACES[name].activation_patterns()] == RECORDED[name]["activation_patterns"]


def test_grid_matches_the_recording():
    space = make_synthetic_space()
    grid = space.grid(points_per_dim=GRID_POINTS)
    assert len(grid) == len(set(grid))
    assert [outcome(space, lambda: config) for config in grid] == RECORDED["synthetic"]["grid"]


@pytest.mark.parametrize("name", sorted(SPACES))
def test_equal_patterns_are_one_object(name):
    """``make``, a pool and ``activation_patterns`` hand out the one interned set per pattern."""
    space = SPACES[name]
    rng = np.random.default_rng(11)
    pool = space.sample_many(64, rng)
    for config in pool:
        assert space.make(dict(config), check_constraints=False).active is config.active
    patterns = space.activation_patterns()
    for config in pool:
        assert any(config.active is p for p in patterns)


#: The knob kinds of the generated graphs: (knob from name and default index,
#: its four values, the thresholds ``GreaterThan``/``LessThan`` compare it
#: with; none for a categorical). ``grid(4)`` takes every value of each kind.
#: The quantized float's bounds lie off its 0.25 grid: a draw clips up to
#: 0.1, and never reaches 0.8, which rounds back to 0.75.
_KINDS = [
    (lambda name, d: IntegerParameter(name, 0, 3, default=d), [0, 1, 2, 3], [-1, 0, 0.5, 1, 2, 3, 4]),
    (lambda name, d: FloatParameter(name, 0.1, 0.8, default=[0.25, 0.5, 0.75, 0.5][d], quantization=0.25),
     [0.1, 0.25, 0.5, 0.75], [0.05, 0.1, 0.2, 0.25, 0.6, 0.78, 0.8]),
    (lambda name, d: CategoricalParameter(name, ["p", "q", "r", "s"], default="pqrs"[d]), ["p", "q", "r", "s"], []),
]


@st.composite
def condition_graphs(draw) -> ConfigurationSpace:
    """A space of 2–7 four-valued knobs (integers, quantized floats with
    off-grid bounds, categoricals) whose conditions form a random DAG: a
    child may hang under a conditioned parent (chains) and carry two
    conditions, and the conditions are added in a shuffled order."""
    n = draw(st.integers(2, 7))
    kinds = draw(st.lists(st.integers(0, len(_KINDS) - 1), min_size=n, max_size=n))
    space = ConfigurationSpace("graph")
    for j, kind in enumerate(kinds):
        space.add(_KINDS[kind][0](f"k{j}", draw(st.integers(0, 3))))
    edges = []
    for child in range(1, n):
        for parent in draw(st.lists(st.integers(0, child - 1), max_size=2, unique=True)):
            _, values, cuts = _KINDS[kinds[parent]]
            c, p, k = f"k{child}", f"k{parent}", draw(st.integers(0, 3))
            options = [EqualsCondition(c, p, values[k]), InCondition(c, p, [values[k], values[(k + 2) % 4]])]
            if cuts:
                t = draw(st.sampled_from(cuts))
                options += [GreaterThanCondition(c, p, t), LessThanCondition(c, p, t)]
            edges.append(draw(st.sampled_from(options)))
    for condition in draw(st.permutations(edges)):
        space.add_condition(condition)
    return space


@settings(max_examples=60, deadline=None)
@given(space=condition_graphs(), seed=st.integers(0, 2**16))
def test_activation_patterns_never_miss_a_drawn_pattern(space, seed):
    """No pattern a drawn configuration holds is missing from the list."""
    patterns = set(space.activation_patterns())
    pool = space.sample_many(64, np.random.default_rng(seed))
    assert {config.active for config in pool} <= patterns


def test_the_property_sees_chains_and_two_conditions_on_one_child():
    space = ConfigurationSpace("chain")
    for j in range(4):
        space.add(IntegerParameter(f"k{j}", 0, 3, default=0))
    space.add_condition(GreaterThanCondition("k3", "k2", 0))  # k3's parent is conditioned, and declared first
    space.add_condition(EqualsCondition("k2", "k1", 1))
    space.add_condition(LessThanCondition("k2", "k0", 2))  # two conditions on k2
    drawn = {config.active for config in space.sample_many(256, np.random.default_rng(0))}
    assert drawn <= set(space.activation_patterns())
    assert {"k0", "k1", "k2", "k3"} in [set(p) for p in drawn]
    assert {"k0", "k1"} in [set(p) for p in drawn]


@settings(max_examples=60, deadline=None)
@given(space=condition_graphs())
def test_activation_patterns_are_the_patterns_of_the_full_lattice(space):
    """Every knob is four-valued, so ``grid(4)`` is every configuration (at
    most 4**7 rows, resolved as one batch): a pattern is listed iff some
    configuration holds it."""
    assert set(space.activation_patterns()) == {config.active for config in space.grid(4)}


def test_a_quantization_grid_that_skips_the_band_activates_nothing():
    """No multiple of 0.5 lies in (0.1, 0.4), so ``child`` is never active."""
    space = ConfigurationSpace("quantized")
    space.add(FloatParameter("c", 0.0, 1.0, quantization=0.5))
    space.add(FloatParameter("child", 0.0, 1.0))
    space.add_condition(GreaterThanCondition("child", "c", 0.1))
    space.add_condition(LessThanCondition("child", "c", 0.4))
    assert space.activation_patterns() == [frozenset({"c"})]


def test_conditions_that_conflict_across_levels_activate_nothing():
    """``y`` needs ``a < 5`` and ``z`` needs ``a > 5`` and ``y`` active: ``z`` never is."""
    space = ConfigurationSpace("levels")
    space.add(FloatParameter("a", 0.0, 10.0))
    space.add(FloatParameter("y", 0.0, 1.0))
    space.add(FloatParameter("z", 0.0, 1.0))
    space.add_condition(LessThanCondition("y", "a", 5.0))
    space.add_condition(GreaterThanCondition("z", "y", 0.1))
    space.add_condition(GreaterThanCondition("z", "a", 5.0))
    assert not any("z" in config.active for config in space.sample_many(2000, np.random.default_rng(0)))
    assert [set(p) for p in space.activation_patterns()] == [{"a"}, {"a", "y"}]


def test_a_draw_that_clips_to_an_off_grid_bound_is_a_witness():
    """A draw clips ``c`` up to 0.1, off the 0.25 grid, where ``c < 0.2`` holds."""
    space = ConfigurationSpace("clipped")
    space.add(FloatParameter("c", 0.1, 1.0, default=0.5, quantization=0.25))
    space.add(FloatParameter("child1", 0.0, 1.0))
    space.add(FloatParameter("child2", 0.0, 1.0))
    space.add_condition(LessThanCondition("child1", "c", 0.2))
    space.add_condition(GreaterThanCondition("child2", "c", 0.5))
    drawn = {config.active for config in space.sample_many(200, np.random.default_rng(0))}
    assert frozenset({"c", "child1"}) in drawn
    assert set(space.activation_patterns()) == drawn == {config.active for config in space.grid(5)}
