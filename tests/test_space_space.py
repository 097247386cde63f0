"""Unit tests for ConfigurationSpace and Configuration."""

import pickle

import numpy as np
import pytest

from repro.exceptions import (
    ConstraintViolationError,
    DuplicateParameterError,
    SamplingError,
    SpaceError,
    UnknownParameterError,
)
from repro.space import (
    BooleanParameter,
    CallableConstraint,
    CategoricalParameter,
    ConfigurationSpace,
    EqualsCondition,
    FloatParameter,
    IntegerParameter,
)


class TestConstruction:
    def test_duplicate_rejected(self, simple_space):
        with pytest.raises(DuplicateParameterError):
            simple_space.add(FloatParameter("x", 0, 1))

    def test_unknown_condition_refs(self, simple_space):
        with pytest.raises(UnknownParameterError):
            simple_space.add_condition(EqualsCondition("nope", "x", 1))

    def test_self_condition_rejected(self, simple_space):
        with pytest.raises(SpaceError):
            simple_space.add_condition(EqualsCondition("x", "x", 1))

    def test_condition_cycle_rejected(self):
        space = ConfigurationSpace("cyc")
        space.add(BooleanParameter("a"))
        space.add(BooleanParameter("b"))
        space.add_condition(EqualsCondition("a", "b", True))
        with pytest.raises(SpaceError):
            space.add_condition(EqualsCondition("b", "a", True))
        # The refused condition is not kept: activation is as before it.
        assert len(space.conditions) == 1
        assert space.make({"a": True, "b": True}).active == {"a", "b"}
        assert space.make({"a": True, "b": False}).active == {"b"}

    def test_introspection(self, simple_space):
        assert simple_space.n_dims == 4
        assert len(simple_space) == 4
        assert "x" in simple_space
        assert "zzz" not in simple_space
        with pytest.raises(UnknownParameterError):
            simple_space["zzz"]


class TestMake:
    def test_defaults_fill_gaps(self, simple_space):
        cfg = simple_space.make({"x": 0.9})
        assert cfg["x"] == 0.9
        assert cfg["n"] == 8
        assert cfg["mode"] == "a"

    def test_unknown_key_rejected(self, simple_space):
        with pytest.raises(UnknownParameterError):
            simple_space.make({"bogus": 1})

    def test_invalid_value_rejected(self, simple_space):
        from repro.exceptions import InvalidValueError

        with pytest.raises(InvalidValueError):
            simple_space.make({"x": 99.0})

    def test_inactive_pinned_to_default(self, conditional_space):
        cfg = conditional_space.make({"jit": False, "jit_cost": 5000})
        assert cfg["jit_cost"] == 10**5  # reset to default
        assert "jit_cost" not in cfg.active

    def test_active_conditional_keeps_value(self, conditional_space):
        cfg = conditional_space.make({"jit": True, "jit_cost": 5000})
        assert cfg["jit_cost"] == 5000
        assert "jit_cost" in cfg.active

    def test_constraint_enforced(self, conditional_space):
        with pytest.raises(ConstraintViolationError):
            conditional_space.make({"pool": 64, "instances": 16, "chunk": 4096})

    def test_constraint_skippable(self, conditional_space):
        cfg = conditional_space.make(
            {"pool": 64, "instances": 16, "chunk": 4096}, check_constraints=False
        )
        assert not conditional_space.is_feasible(cfg)

    def test_configuration_is_mapping(self, simple_space, conditional_space):
        for space in (simple_space, conditional_space):
            cfg = space.default_configuration()
            reference = cfg.as_dict()
            assert list(cfg) == list(reference) == space.names  # the space's order
            assert len(cfg) == space.n_dims
            assert dict(cfg) == reference
            for key in (*space.names, "zzz"):
                assert (key in cfg) == (key in reference)
                assert cfg.get(key) == reference.get(key)
                assert cfg.get(key, "fallback") == reference.get(key, "fallback")
            with pytest.raises(KeyError):
                cfg["zzz"]
            mutated = cfg.as_dict()
            mutated[space.names[0]] = "changed"
            assert cfg.as_dict() == reference  # as_dict() hands out an independent copy

    def test_equality_and_hash(self, simple_space):
        a = simple_space.make({"x": 0.25})
        b = simple_space.make({"x": 0.25})
        c = simple_space.make({"x": 0.75})
        assert a == b and hash(a) == hash(b)
        assert a != c
        # The same knobs added in another order: another key index, the same mapping.
        reordered = ConfigurationSpace("reordered")
        for param in reversed(simple_space.parameters):
            reordered.add(param)
        d = reordered.make({"x": 0.25})
        assert list(d) == list(reversed(list(a)))
        assert d == a and a == d and hash(d) == hash(a)
        assert reordered.make({"x": 0.75}) != a


class TestConfigurationLayout:
    def test_pickle_round_trip(self, simple_space, rng):
        # ProcessExecutor ships configurations (with their space) to workers.
        configs = simple_space.sample_many(3, rng)
        again = pickle.loads(pickle.dumps(configs))
        assert again == configs
        assert [hash(c) for c in again] == [hash(c) for c in configs]
        assert [list(c) for c in again] == [list(c) for c in configs]
        assert [c.active for c in again] == [c.active for c in configs]

    def test_configuration_survives_a_later_add(self, simple_space):
        before = simple_space.make({"x": 0.25})
        simple_space.add(BooleanParameter("late", default=True))
        after = simple_space.make({"x": 0.25})
        assert before.as_dict() == {"x": 0.25, "y": 10.0, "n": 8, "mode": "a"}
        assert "late" not in before and len(before) == 4
        assert list(after) == [*before, "late"] and after["late"] is True
        assert before != after

    def test_one_frozenset_per_activation_pattern(self, conditional_space, simple_space, rng):
        on = [conditional_space.make({"jit": True, "jit_cost": cost}) for cost in (2000, 5000)]
        off = [conditional_space.make({"jit": False, "pool": pool}) for pool in (256, 1024)]
        assert on[0].active is on[1].active
        assert off[0].active is off[1].active
        assert on[0].active != off[0].active
        for cfg in conditional_space.sample_many(20, rng):
            assert cfg.active is (on if cfg["jit"] else off)[0].active
        # Unconditioned spaces: every sampled or made configuration shares one set.
        everything = simple_space.default_configuration().active
        assert all(cfg.active is everything for cfg in simple_space.sample_many(5, rng))


class TestSampling:
    def test_samples_valid_and_feasible(self, conditional_space, rng):
        for _ in range(50):
            cfg = conditional_space.sample(rng)
            assert conditional_space.is_feasible(cfg)
            assert cfg["chunk"] <= cfg["pool"] / cfg["instances"] + 1e-9

    def test_deterministic_with_seed(self):
        s1 = ConfigurationSpace("s", seed=7)
        s1.add(FloatParameter("x", 0, 1))
        s2 = ConfigurationSpace("s", seed=7)
        s2.add(FloatParameter("x", 0, 1))
        assert [s1.sample()["x"] for _ in range(5)] == [s2.sample()["x"] for _ in range(5)]

    def test_unsatisfiable_constraints_raise(self):
        space = ConfigurationSpace("bad")
        space.add(FloatParameter("x", 0, 1))
        space.add_constraint(CallableConstraint(lambda v: False, name="never"))
        with pytest.raises(SamplingError):
            space.sample()

    def test_sample_many(self, simple_space, rng):
        configs = simple_space.sample_many(10, rng)
        assert len(configs) == 10

    def test_sample_many_valid_and_typed(self, simple_space, rng):
        """The vectorized path must emit the same python-scalar value types
        the per-config path does."""
        for cfg in simple_space.sample_many(30, rng):
            assert type(cfg["x"]) is float
            assert type(cfg["n"]) is int
            assert cfg["mode"] in ("a", "b", "c")
            assert simple_space.is_feasible(cfg)

    def test_sample_many_respects_constraints(self, conditional_space, rng):
        for cfg in conditional_space.sample_many(40, rng):
            assert conditional_space.is_feasible(cfg)
            assert cfg["chunk"] <= cfg["pool"] / cfg["instances"] + 1e-9

    def test_sample_many_deterministic(self, simple_space):
        a = simple_space.sample_many(8, np.random.default_rng(5))
        b = simple_space.sample_many(8, np.random.default_rng(5))
        assert [dict(c) for c in a] == [dict(c) for c in b]

    def test_sample_many_unsatisfiable_raises(self):
        space = ConfigurationSpace("bad")
        space.add(FloatParameter("x", 0, 1))
        space.add_constraint(CallableConstraint(lambda v: False, name="never"))
        with pytest.raises(SamplingError):
            space.sample_many(4)


class TestEncoding:
    def test_roundtrip_unit_array(self, simple_space, rng):
        for _ in range(20):
            cfg = simple_space.sample(rng)
            again = simple_space.from_unit_array(simple_space.to_unit_array(cfg))
            for name in simple_space.names:
                if simple_space[name].is_numeric:
                    assert float(again[name]) == pytest.approx(float(cfg[name]), rel=0.01)
                else:
                    assert again[name] == cfg[name]

    def test_unit_array_in_bounds(self, conditional_space, rng):
        for _ in range(20):
            x = conditional_space.to_unit_array(conditional_space.sample(rng))
            assert np.all((x >= 0) & (x <= 1))

    def test_from_unit_array_shape_check(self, simple_space):
        with pytest.raises(SpaceError):
            simple_space.from_unit_array([0.5, 0.5])


class TestNeighbors:
    def test_neighbor_feasible(self, conditional_space, rng):
        cfg = conditional_space.sample(rng)
        for _ in range(30):
            cfg = conditional_space.neighbor(cfg, rng, scale=0.2)
            assert conditional_space.is_feasible(cfg)

    def test_neighbor_changes_something(self, simple_space, rng):
        cfg = simple_space.default_configuration()
        changed = sum(
            1
            for _ in range(20)
            if simple_space.neighbor(cfg, rng, scale=0.3) != cfg
        )
        assert changed >= 15

    def test_neighbor_many_feasible_and_local(self, conditional_space, rng):
        cfg = conditional_space.sample(rng)
        neighbors = conditional_space.neighbor_many(cfg, 30, rng, scales=0.2)
        assert len(neighbors) == 30
        for nb in neighbors:
            assert conditional_space.is_feasible(nb)

    def test_neighbor_many_per_sample_scales(self, simple_space, rng):
        cfg = simple_space.default_configuration()
        scales = np.concatenate([np.full(25, 0.01), np.full(25, 0.5)])
        neighbors = simple_space.neighbor_many(cfg, 50, rng, scales=scales)
        def dist(nb):
            return abs(simple_space["x"].to_unit(nb["x"]) - simple_space["x"].to_unit(cfg["x"]))
        small = np.mean([dist(nb) for nb in neighbors[:25]])
        large = np.mean([dist(nb) for nb in neighbors[25:]])
        assert small < large

    def test_neighbor_many_deterministic(self, simple_space):
        cfg = simple_space.default_configuration()
        a = simple_space.neighbor_many(cfg, 10, np.random.default_rng(3), scales=0.2)
        b = simple_space.neighbor_many(cfg, 10, np.random.default_rng(3), scales=0.2)
        assert [dict(c) for c in a] == [dict(c) for c in b]


class TestGrid:
    def test_grid_covers_categoricals(self, simple_space):
        grid = simple_space.grid(points_per_dim=3)
        modes = {cfg["mode"] for cfg in grid}
        assert modes == {"a", "b", "c"}

    def test_grid_size_bound(self, simple_space):
        with pytest.raises(SpaceError):
            simple_space.grid(points_per_dim=100, max_points=50)

    def test_grid_drops_infeasible(self, conditional_space):
        grid = conditional_space.grid(points_per_dim=3)
        assert all(conditional_space.is_feasible(c) for c in grid)

    def test_grid_deduplicates_conditionals(self, conditional_space):
        grid = conditional_space.grid(points_per_dim=2)
        assert len(set(grid)) == len(grid)


class TestSubspace:
    def test_subspace_keeps_params(self, conditional_space):
        sub = conditional_space.subspace(["pool", "instances"])
        assert set(sub.names) == {"pool", "instances"}

    def test_subspace_drops_partial_constraints(self, conditional_space):
        sub = conditional_space.subspace(["pool", "instances"])  # chunk gone
        assert len(sub.constraints) == 0

    def test_subspace_keeps_full_constraints(self, conditional_space):
        sub = conditional_space.subspace(["pool", "instances", "chunk"])
        assert len(sub.constraints) == 1

    def test_subspace_keeps_conditions(self, conditional_space):
        sub = conditional_space.subspace(["jit", "jit_cost"])
        assert len(sub.conditions) == 1

    def test_subspace_unknown_name(self, conditional_space):
        with pytest.raises(UnknownParameterError):
            conditional_space.subspace(["nope"])
