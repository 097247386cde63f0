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
SEEDS = (1, 2)
#: Pool sizes: ``generate_candidates`` (22 global + 10 local) and ``trust_region``.
N_CANDIDATES = 32
N_TRUST = 16


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


if __name__ == "__main__":
    POOLS_PATH.write_text(json.dumps(record(), separators=(",", ":")) + "\n")
    print(f"wrote {POOLS_PATH}")
