"""Candidate pools: drawn, resolved and held as columns, built one row at a time.

The recorded pools (``tests/data/candidate_pools.json``, see
``make_candidate_pools.py``) pin every value, its Python type, each row's
activation and the generator state after ``generate_candidates`` and
``trust_region``; the encoders read a pool's columns to the same bits as the
configurations it holds; and a model ask builds only the configuration it
returns.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.optimizers import BayesianOptimizer, SMACOptimizer, StructuredBayesianOptimizer
from repro.space.encoding import OneHotEncoder, OrdinalEncoder
from repro.space.space import Configuration, ConfigurationPool
from repro.targets import make_system

from .data.make_candidate_pools import POOLS_PATH, SEEDS, draw, spaces

RECORDED = json.loads(POOLS_PATH.read_text())
SPACES = spaces()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(SPACES))
def test_pools_match_the_recording(name, seed):
    drawn = draw(SPACES[name], seed)
    recorded = RECORDED[name][str(seed)]
    assert [d["call"] for d in drawn] == [r["call"] for r in recorded]
    for now, then in zip(drawn, recorded):
        assert now["rng_state"] == then["rng_state"], now["call"]
        assert len(now["rows"]) == len(then["rows"]), now["call"]
        for k, (row, old) in enumerate(zip(now["rows"], then["rows"])):
            assert row["inactive"] == old["inactive"], (now["call"], k)
            # JSON keeps int and float apart; == alone would not.
            assert [(type(v), v) for v in row["values"]] == [(type(v), v) for v in old["values"]], (now["call"], k)


@pytest.mark.parametrize("encoder", [OrdinalEncoder, OneHotEncoder])
@pytest.mark.parametrize("name", sorted(SPACES))
def test_encoders_read_columns_to_the_same_bits(name, encoder):
    space = SPACES[name]
    rng = np.random.default_rng(5)
    enc = encoder(space)
    incumbent = space.sample(rng)
    for pool in (space.sample_many(40, rng), space.neighbor_many(incumbent, 40, rng, scales=0.3)):
        assert isinstance(pool, ConfigurationPool)
        assert np.array_equal(enc.encode_many(pool), enc.encode_many(list(pool)))


class TestPool:
    @pytest.fixture
    def space(self):
        return SPACES["synthetic"]

    def test_indexing_builds_a_row_once(self, space):
        pool = space.sample_many(6, np.random.default_rng(0))
        assert pool[2] is pool[2] and pool[-1] is pool[5]
        assert pool[1:3] == [pool[1], pool[2]]
        assert list(pool) == [pool[k] for k in range(6)]
        with pytest.raises(IndexError):
            pool[6]
        made = space.make(dict(pool[4]))
        assert made == pool[4] and made.active is pool[4].active

    def test_concatenation_and_existing_configurations(self, space):
        rng = np.random.default_rng(1)
        a, b = space.sample_many(3, rng), space.sample_many(2, rng)
        both = a + b
        assert len(both) == 5 and both == [*a, *b]
        centre = space.sample(rng)
        pool = ConfigurationPool.of(space, [centre]) + b
        assert pool[0] is centre and pool[1:] == list(b)
        assert pool.column("a") == [centre["a"], b[0]["a"], b[1]["a"]]
        with pytest.raises(TypeError):
            a + [centre]


def _count_constructions(monkeypatch) -> list[int]:
    made = [0]
    init = Configuration.__init__

    def counting(self, *args, **kwargs):
        made[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Configuration, "__init__", counting)
    return made


@pytest.mark.parametrize(
    ("system", "make", "batch"),
    [
        ("dbms", lambda space: BayesianOptimizer(space, n_init=4, seed=0), 1),
        pytest.param("dbms", lambda space: StructuredBayesianOptimizer(space, n_init=4, seed=0), 1, id="dbms-structured-1"),
        ("redis", lambda space: SMACOptimizer(space, n_init=4, interleave=0, seed=0), 1),
        ("redis", lambda space: SMACOptimizer(space, n_init=4, interleave=0, seed=0), 3),
    ],
)
def test_a_model_ask_builds_only_what_it_returns(system, make, batch, monkeypatch):
    """Before the pool was held as columns a model ask built every candidate (510–512 of 512);
    a structured ask built them all until it read the pool's activation patterns."""
    opt = make(make_system(system).space)
    rng = np.random.default_rng(0)
    for _ in range(opt.n_init):
        (config,) = opt.suggest()
        opt.observe(config, float(rng.random()))
    made = _count_constructions(monkeypatch)
    suggestions = opt.suggest(batch)
    assert len(suggestions) == batch
    assert opt.surrogate_stats()["degraded_total"] == 0
    assert made[0] <= batch
