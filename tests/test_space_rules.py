"""The space rules: activation under conditions and feasibility under constraints.

``tests/data/space_rules.json`` (written by ``make_candidate_pools.py``)
records what ``make`` (with and without constraint checking) and
``is_feasible`` answer for fixed and seeded value rows on ``dbms``, ``nginx``
and the synthetic space — the values and inactive knobs, or the class of the
exception — with every ``activation_patterns()`` and the synthetic space's
``grid()``. Each answer here must equal the recorded one. The property below
holds ``activation_patterns()`` to its promise on random condition graphs.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codec import config_from_values
from repro.space import (
    ConfigurationSpace,
    EqualsCondition,
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


_CONDITIONS = [
    lambda child, parent, k: EqualsCondition(child, parent, k),
    lambda child, parent, k: InCondition(child, parent, [k, (k + 2) % 4]),
    lambda child, parent, k: GreaterThanCondition(child, parent, k - 1),
    lambda child, parent, k: LessThanCondition(child, parent, k + 1),
]


@st.composite
def condition_graphs(draw) -> ConfigurationSpace:
    """A space of 2–7 four-valued knobs whose conditions form a random DAG:
    a child may hang under a conditioned parent (chains) and carry two
    conditions, and the conditions are added in a shuffled order."""
    n = draw(st.integers(2, 7))
    space = ConfigurationSpace("graph")
    for j in range(n):
        space.add(IntegerParameter(f"k{j}", 0, 3, default=draw(st.integers(0, 3))))
    edges = []
    for child in range(1, n):
        parents = draw(st.lists(st.integers(0, child - 1), max_size=2, unique=True))
        for parent in parents:
            kind, operand = draw(st.integers(0, len(_CONDITIONS) - 1)), draw(st.integers(0, 3))
            edges.append(_CONDITIONS[kind](f"k{child}", f"k{parent}", operand))
    for condition in draw(st.permutations(edges)):
        space.add_condition(condition)
    return space


@settings(max_examples=60, deadline=None)
@given(space=condition_graphs(), seed=st.integers(0, 2**16))
def test_activation_patterns_never_miss_a_drawn_pattern(space, seed):
    """The docstring's promise: the list may hold a pattern no values produce, never miss one they do."""
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
