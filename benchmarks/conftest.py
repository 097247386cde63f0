"""Shared helpers for the shape experiments (E1–E23).

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

import pytest

from repro.analysis import format_table
from repro.core import Objective


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
