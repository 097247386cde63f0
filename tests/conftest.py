"""Shared fixtures: spaces, systems, workloads, evaluators."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from repro.core import Objective
from repro.space import (
    BooleanParameter,
    CategoricalParameter,
    ConfigurationSpace,
    EqualsCondition,
    FloatParameter,
    IntegerParameter,
    RatioConstraint,
)
from repro.sysim import QUIET_CLOUD, CloudEnvironment, RedisServer, SimulatedDBMS, redis_benchmark_workload
from repro.workloads import tpcc, ycsb


def assert_healthy(optimizer) -> None:
    """A healthy campaign never degraded a suggestion to random sampling.

    Model-free optimizers have no surrogate to degrade and expose no
    ``surrogate_stats``; for them there is nothing to assert.
    """
    stats = getattr(optimizer, "surrogate_stats", None)
    if stats is not None:
        assert stats()["degraded_total"] == 0, f"{type(optimizer).__name__} degraded: {stats()}"


_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$")


def assert_exposition_round_trips(text: str, registry=None) -> None:
    """Parse Prometheus text exposition as a scraper would: each family has
    exactly one ``# TYPE`` line, every sample line belongs to the family
    declared last above it, and (given the registry it came from) every
    counter, gauge and histogram ``_sum``/``_count`` parses back to the
    registry's float exactly."""
    from repro.telemetry.metrics import _prom_name

    types: dict[str, str] = {}
    samples: dict[str, float] = {}
    family = None
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, family, kind = line.split(" ")
            assert family not in types, f"family {family} has two # TYPE lines"
            types[family] = kind
            continue
        match = _SAMPLE.match(line)
        assert match is not None, f"not a sample line: {line!r}"
        name, labels, value = match.groups()
        suffixes = ("_bucket", "_sum", "_count") if types.get(family) == "histogram" else ()
        assert family is not None and name in {family, *(family + s for s in suffixes)}, (
            f"{line!r} is outside its family {family}"
        )
        samples[name + (labels or "")] = float(value)
    if registry is None:
        return
    data = registry.to_dict()
    expected = {_prom_name(name): v for name, v in {**data["counters"], **data["gauges"]}.items()}
    for name, hist in data["histograms"].items():
        expected[_prom_name(name) + "_sum"] = hist["sum"]
        expected[_prom_name(name) + "_count"] = hist["count"]
    for name, value in expected.items():
        got = samples[name]
        assert got == value or (math.isnan(got) and math.isnan(value)), f"{name}: wrote {got!r}, holds {value!r}"
    assert {name for name in samples if "{" not in name} == set(expected)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def simple_space():
    """Two floats, an integer, and a categorical — no conditions."""
    space = ConfigurationSpace("simple", seed=0)
    space.add(FloatParameter("x", 0.0, 1.0, default=0.5))
    space.add(FloatParameter("y", 1.0, 1000.0, default=10.0, log=True))
    space.add(IntegerParameter("n", 1, 64, default=8, log=True))
    space.add(CategoricalParameter("mode", ["a", "b", "c"], default="a"))
    return space


@pytest.fixture
def conditional_space():
    """PostgreSQL-jit-style conditional + a ratio constraint."""
    space = ConfigurationSpace("pg", seed=0)
    space.add(IntegerParameter("pool", 64, 8192, default=512, log=True))
    space.add(IntegerParameter("instances", 1, 16, default=4))
    space.add(IntegerParameter("chunk", 16, 4096, default=64, log=True))
    space.add(BooleanParameter("jit", default=False))
    space.add(IntegerParameter("jit_cost", 1000, 10**6, default=10**5, log=True))
    space.add_condition(EqualsCondition("jit_cost", "jit", True))
    space.add_constraint(RatioConstraint("chunk", "pool", "instances", name="chunk_fits"))
    return space


@pytest.fixture
def quiet_dbms():
    """Deterministic DBMS — no cloud noise."""
    return SimulatedDBMS(env=QUIET_CLOUD(seed=1), seed=1)


@pytest.fixture
def noisy_dbms():
    return SimulatedDBMS(env=CloudEnvironment(seed=1, transient_noise=0.05), seed=1)


@pytest.fixture
def redis_server():
    return RedisServer(env=QUIET_CLOUD(seed=2), seed=2)


@pytest.fixture
def redis_workload():
    return redis_benchmark_workload()


@pytest.fixture
def tpcc_workload():
    return tpcc(50)


@pytest.fixture
def ycsb_a():
    return ycsb("a")


@pytest.fixture
def throughput_objective():
    return Objective("throughput", minimize=False)


@pytest.fixture
def latency_objective():
    return Objective("latency_p95", minimize=True)


def quadratic_evaluator(optimum: dict[str, float] | None = None):
    """A cheap deterministic evaluator: sum of squared unit distances."""
    optimum = optimum or {}

    def evaluate(config):
        space = config.space
        total = 0.0
        for name in space.names:
            p = space[name]
            if not p.is_numeric:
                continue
            target = optimum.get(name, 0.3)
            total += (p.to_unit(config[name]) - target) ** 2
        return total, 1.0

    return evaluate
