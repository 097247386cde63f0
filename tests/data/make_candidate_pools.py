"""Characterisation goldens for the candidate pools of the model-based optimizers.

Records, for three spaces, every configuration that
:func:`~repro.optimizers.acquisition.generate_candidates` (with and without an
incumbent) and :func:`~repro.optimizers.acquisition.trust_region` return for
seeded draws, row by row (values in space order and the inactive knobs), and
the generator's state after each call:

* ``dbms`` — 21 knobs, one ``EqualsCondition`` and a ``LinearConstraint``;
* ``redis`` — plain: no condition, no constraint;
* ``synthetic`` (:func:`make_synthetic_space`) — ``In``, ``GreaterThan``,
  ``Equals`` and ``Callable`` conditions, one of them on a conditioned parent
  declared before its own parent's condition, and ``Ratio`` (with and without a
  divisor) and ``Callable`` constraints that reject a good share of rows, so
  ``sample_many`` redraws in several rounds and neighbours fall back to the
  incumbent.

``tests/test_candidate_pools.py`` re-draws the same pools and demands equal
values of equal Python types, equal activation and an equal generator state,
so a change to how a pool is drawn, resolved or held cannot move a draw, a
value or a type unnoticed. Recorded before the pools were held as columns.

It also records the space rules themselves in ``space_rules.json``, read by
``tests/test_space_rules.py``: for ``dbms``, ``nginx`` and ``synthetic``,
what ``make`` returns for fixed value rows (hand-written ones covering an
unknown name, an out-of-domain value, text for a numeric knob and a violated
``Linear``, ``Ratio`` and ``Callable`` constraint, plus seeded random rows),
with and without ``check_constraints`` — the values and inactive knobs, or
the exception's class — what ``is_feasible`` says of the same rows, every
``activation_patterns()``, and ``grid()`` of the synthetic space. Recorded
before conditions and constraints were applied by one column routine.

Regenerate (only when a behaviour change is intended and explained)::

    PYTHONPATH=src python tests/data/make_candidate_pools.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.optimizers.acquisition import generate_candidates, trust_region
from repro.space import (
    BooleanParameter,
    CallableCondition,
    CallableConstraint,
    CategoricalParameter,
    ConfigurationSpace,
    EqualsCondition,
    FloatParameter,
    GreaterThanCondition,
    InCondition,
    IntegerParameter,
    RatioConstraint,
)
from repro.targets import make_system

POOLS_PATH = Path(__file__).resolve().parent / "candidate_pools.json"
RULES_PATH = Path(__file__).resolve().parent / "space_rules.json"
SEEDS = (1, 2)
#: Pool sizes: ``generate_candidates`` (22 global + 10 local) and ``trust_region``.
N_CANDIDATES = 32
N_TRUST = 16
#: Seeded random value rows per space for ``make`` (some knobs left out), and
#: the synthetic grid's points per numeric knob.
N_RANDOM_ROWS = 40
GRID_POINTS = 3

#: Hand-written ``make`` inputs, one (label, values) pair each.
FIXED_ROWS: dict[str, list[tuple[str, dict[str, object]]]] = {
    "dbms": [
        ("defaults", {}),
        ("jit-on", {"jit": True, "jit_above_cost": 20_000}),
        ("jit-off-pins-its-child", {"jit": False, "jit_above_cost": 20_000}),
        ("inactive-child-out-of-domain", {"jit": False, "jit_above_cost": -5}),
        ("active-child-out-of-domain", {"jit": True, "jit_above_cost": -5}),
        ("unknown-name", {"no_such_knob": 1}),
        ("out-of-domain", {"buffer_pool_mb": 1}),
        ("not-a-choice", {"flush_method": "zzz"}),
        ("text-for-a-constrained-knob", {"wal_buffer_mb": "abc"}),
        ("linear-violated", {"wal_buffer_mb": 512, "buffer_pool_mb": 64}),
        ("linear-at-its-bound", {"wal_buffer_mb": 64, "buffer_pool_mb": 128}),
    ],
    "nginx": [
        ("defaults", {}),
        ("gzip-on", {"gzip": True, "gzip_level": 9}),
        ("gzip-off-pins-its-child", {"gzip": False, "gzip_level": 9}),
        ("active-child-out-of-domain", {"gzip": True, "gzip_level": 10}),
        ("unknown-name", {"no_such_knob": 1}),
        ("not-a-choice", {"access_log": "loud"}),
        ("text-for-a-numeric-knob", {"worker_processes": "four"}),
    ],
    "synthetic": [
        ("defaults", {}),
        ("chain-on", {"a": 6.0, "b": 100, "d": 8, "e": 0.5, "c": 0.05}),
        ("chain-broken-at-its-parent", {"a": 3.0, "d": 8, "e": 0.5}),
        ("chain-broken-at-its-child", {"a": 6.0, "b": 100, "d": 7, "e": 0.5, "c": 0.05}),
        ("inactive-child-out-of-domain", {"mode": "z", "c": 7.0}),
        ("unknown-name", {"no_such_knob": 1}),
        ("out-of-domain", {"a": 11.0}),
        ("not-a-choice", {"mode": "w"}),
        ("text-for-a-condition-parent", {"a": "abc"}),
        ("ratio-violated", {"a": 6.0, "b": 5, "d": 6}),
        ("ratio-with-divisor-violated", {"a": 1.0, "b": 10, "c": 0.5}),
        ("callable-violated", {"a": 9.0, "b": 100, "d": 10, "e": 1.0, "c": 0.05}),
    ],
}


def make_synthetic_space() -> ConfigurationSpace:
    """Mixed space whose conditions chain and whose constraints bite."""
    space = ConfigurationSpace("synthetic")
    space.add(FloatParameter("a", 0.0, 10.0, default=2.0))
    space.add(IntegerParameter("b", 1, 100, log=True, default=10))
    space.add(CategoricalParameter("mode", ["x", "y", "z"], default="x"))
    space.add(BooleanParameter("flag", default=False))
    space.add(FloatParameter("c", 0.0, 1.0, quantization=0.05, default=0.5))
    space.add(IntegerParameter("d", 0, 50, default=4))
    space.add(FloatParameter("e", 0.0, 1.0, default=0.25))
    space.add(CategoricalParameter("f", ["p", "q"], default="p"))
    # e's parent d is itself conditioned, and e's condition comes first.
    space.add_condition(CallableCondition("e", "d", lambda d: d % 2 == 0))
    space.add_condition(GreaterThanCondition("d", "a", 4.0))
    space.add_condition(InCondition("c", "mode", ["x", "y"]))
    space.add_condition(EqualsCondition("f", "flag", True))
    space.add_constraint(RatioConstraint("d", "b"))
    space.add_constraint(RatioConstraint("c", "a", divisor="b", name="c_below_a_per_b"))
    space.add_constraint(CallableConstraint(lambda v: v["a"] + v["e"] * 4 < 11.0, name="budget"))
    return space


def spaces() -> dict[str, ConfigurationSpace]:
    return {
        "dbms": make_system("dbms").space,
        "redis": make_system("redis").space,
        "synthetic": make_synthetic_space(),
    }


def _rows(space: ConfigurationSpace, configs) -> list[dict[str, object]]:
    return [
        {"values": [config[name] for name in space.names],
         "inactive": sorted(set(space.names) - set(config.active))}
        for config in configs
    ]


def draw(space: ConfigurationSpace, seed: int) -> list[dict[str, object]]:
    """The pools of one seeded draw sequence on ``space``, with the generator state after each."""
    rng = np.random.default_rng(seed)
    incumbent = space.sample(rng)
    calls = [
        ("generate_candidates", lambda: generate_candidates(space, rng, N_CANDIDATES, incumbent=incumbent)),
        ("generate_candidates_global", lambda: generate_candidates(space, rng, N_CANDIDATES)),
        ("trust_region", lambda: trust_region(space, rng, incumbent, N_TRUST)),
    ]
    out = []
    for name, call in calls:
        pool = call()
        out.append({"call": name, "rows": _rows(space, pool), "rng_state": rng.bit_generator.state})
    return out


def record() -> dict[str, object]:
    return {
        name: {str(seed): draw(space, seed) for seed in SEEDS}
        for name, space in spaces().items()
    }


def rule_spaces() -> dict[str, ConfigurationSpace]:
    return {
        "dbms": make_system("dbms").space,
        "nginx": make_system("nginx").space,
        "synthetic": make_synthetic_space(),
    }


def make_inputs(name: str, space: ConfigurationSpace) -> list[dict[str, object]]:
    """The fixed rows of ``space``, then seeded random ones that leave some knobs out."""
    rng = np.random.default_rng(3)
    rows = [{"label": label, "values": values} for label, values in FIXED_ROWS[name]]
    for k in range(N_RANDOM_ROWS):
        values = {knob: p.sample(rng) for knob, p in zip(space.names, space.parameters) if rng.random() < 0.8}
        rows.append({"label": f"random-{k}", "values": values})
    return rows


def outcome(space: ConfigurationSpace, call) -> dict[str, object]:
    """What ``call()`` returns (a configuration's values in space order and its
    inactive knobs, or a bool) or the class of what it raises."""
    try:
        result = call()
    except Exception as err:  # noqa: BLE001 - the class is what is recorded
        return {"error": type(err).__name__}
    if isinstance(result, bool):
        return {"feasible": result}
    return _rows(space, [result])[0]


def record_rules() -> dict[str, object]:
    out: dict[str, object] = {}
    for name, space in rule_spaces().items():
        rows = make_inputs(name, space)
        for row in rows:
            values = row["values"]
            row["make"] = outcome(space, lambda: space.make(values))
            row["make_unchecked"] = outcome(space, lambda: space.make(values, check_constraints=False))
            row["is_feasible"] = outcome(space, lambda: space.is_feasible(values))
        out[name] = {
            "make": rows,
            "activation_patterns": [sorted(p) for p in space.activation_patterns()],
        }
    synthetic = make_synthetic_space()
    out["synthetic"]["grid"] = _rows(synthetic, synthetic.grid(points_per_dim=GRID_POINTS))
    return out


if __name__ == "__main__":
    POOLS_PATH.write_text(json.dumps(record(), separators=(",", ":")) + "\n")
    print(f"wrote {POOLS_PATH}")
    RULES_PATH.write_text(json.dumps(record_rules(), separators=(",", ":")) + "\n")
    print(f"wrote {RULES_PATH}")
