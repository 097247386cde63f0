"""Shared helpers for the shape experiments (E1–E23, E26–E29).

Each experiment reproduces one slide's table/figure: it runs once, prints
the rows/series the slide reports (through captured-output bypass so they
appear on the console), and asserts the *shape* of the result — who wins,
roughly by how much, where the crossovers fall. Absolute numbers come from
the simulators, not the authors' testbed, and are not expected to match.
Nothing here is timed: the repo's benchmark is ``benchmarks/perf``.

The suite is a blocking CI step. A shape that is known to be red carries
``xfail(strict=True, raises=AssertionError)`` with its first-bad commit and
the failing numbers as the reason, so a shape that flips *either* way fails
the build; the status table is in ``EXPERIMENTS.md``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import format_table
from repro.core import Objective

#: Seeds of a powered shape: one paired comparison per seed (ROADMAP item 2).
POWERED_SEEDS = range(20)


def paired_ratio_interval(numerators, denominators, level=0.90):
    """Mean of the per-seed ratios and its bootstrap percentile interval.

    A powered shape asserts on the interval, not on a two-seed point estimate:
    the claim "A ≥ k·B" holds when the interval's lower end clears k. The
    resampling seed is fixed, so the interval is a function of the data.
    """
    ratios = np.asarray(numerators, dtype=float) / np.asarray(denominators, dtype=float)
    means = np.random.default_rng(0).choice(ratios, size=(10_000, len(ratios))).mean(axis=1)
    tail = (1.0 - level) / 2.0
    return float(ratios.mean()), float(np.quantile(means, tail)), float(np.quantile(means, 1.0 - tail))


@pytest.fixture
def emit(capfd):
    """Print to the real console even under pytest's capture."""

    def _emit(text: str) -> None:
        with capfd.disabled():
            print(text)

    return _emit


@pytest.fixture
def table(emit):
    """Print an aligned experiment table."""

    def _table(title, headers, rows):
        emit("\n" + format_table(headers, rows, title=title))

    return _table


THROUGHPUT = Objective("throughput", minimize=False)
P95 = Objective("latency_p95", minimize=True)
LATENCY_AVG = Objective("latency_avg", minimize=True)


@pytest.fixture
def throughput_objective():
    return THROUGHPUT


@pytest.fixture
def p95_objective():
    return P95
