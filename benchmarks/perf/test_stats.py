"""Unit tests of the percentile / sample-count helper and the compare verdicts."""

from __future__ import annotations

import statistics

import pytest

from benchmarks.perf import compare, stats


def test_percentile_matches_linear_interpolation():
    samples = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert stats.percentile(samples, 0) == 1.0
    assert stats.percentile(samples, 50) == 3.0
    assert stats.percentile(samples, 100) == 5.0
    assert stats.percentile(samples, 90) == pytest.approx(4.6)
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize(
    "n, q, beyond",
    [(1000, 99, 10), (999, 99, 9), (100, 90, 10), (99, 90, 9), (190, 99, 1), (20, 50, 10), (19, 50, 9)],
)
def test_samples_beyond_and_resolution(n, q, beyond):
    assert stats.samples_beyond(n, q) == beyond
    assert stats.resolved(n, q) == (beyond >= stats.MIN_BEYOND)


def test_highest_resolved_picks_the_highest_percentile_with_ten_samples_beyond():
    assert stats.highest_resolved(5000) == 99
    assert stats.highest_resolved(1000) == 99
    assert stats.highest_resolved(999) == 90
    assert stats.highest_resolved(100) == 90
    assert stats.highest_resolved(99) == 50
    assert stats.highest_resolved(19) is None


def test_summarize_returns_null_rather_than_an_undersampled_p99_and_always_n():
    samples = [float(i) for i in range(190)]
    assert stats.summarize(samples, 99) == {"value": None, "n": 190}
    p90 = stats.summarize(samples, 90, scale=1e3)
    assert p90["n"] == 190 and p90["value"] == pytest.approx(stats.percentile(samples, 90) * 1e3)
    assert stats.summarize([], 50) == {"value": None, "n": 0}


def test_quartiles_follow_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert stats.quartiles([7.0]) == (7.0, 7.0, 7.0)


BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def test_verdict_unchanged_within_bound_and_noise():
    change = [v * 1.01 for v in reversed(BASE)]
    assert compare.verdict(BASE, change, "lower", 0.10) == "unchanged"


def test_verdict_worse_beyond_bound_in_either_direction():
    assert compare.verdict(BASE, [v * 1.2 for v in BASE], "lower", 0.10) == "worse"
    assert compare.verdict(BASE, [v * 0.8 for v in BASE], "higher", 0.10) == "worse"
    assert compare.verdict([0.0] * 5, [0.0, 0.0, 0.1, 0.0, 0.1], "lower", 0.0) == "worse"


def test_verdict_better_needs_nine_of_ten_pair_wins_and_a_gap_beyond_the_base_iqr():
    assert compare.verdict(BASE, [v * 0.9 for v in BASE], "lower", 0.10) == "better"
    # Wins every pair, but by less than the base's own inter-quartile distance.
    assert compare.verdict(BASE, [v - 0.05 for v in BASE], "lower", 0.10) == "unchanged"
    # A big median gap, but only 8 of 10 pairs won.
    mixed = [v * 0.9 for v in BASE[:8]] + [v * 1.05 for v in BASE[8:]]
    assert compare.verdict(BASE, mixed, "lower", 0.10) == "unchanged"


def test_verdict_unresolved_when_base_spread_exceeds_the_bound():
    noisy = [100.0, 140.0, 70.0, 120.0, 80.0, 130.0, 75.0, 110.0, 90.0, 100.0]
    assert compare.verdict(noisy, [v * 1.02 for v in noisy], "lower", 0.10) == "unresolved"
    # ... unless every run of the change beats every run of the base.
    assert compare.verdict(noisy, [60.0 + i * 0.1 for i in range(10)], "lower", 0.10) in ("better", "unchanged")
