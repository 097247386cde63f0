"""Unit tests for acquisition functions."""

import warnings

import numpy as np
import pytest
from scipy import stats  # the reference; src/ itself never imports scipy.stats
from scipy.special import ndtr  # likewise: what ``_norm_cdf`` was until it cost the forest family 22 MB

from repro.exceptions import OptimizerError
from repro.optimizers.acquisition import (
    CostAwareEI,
    ExpectedImprovement,
    LowerConfidenceBound,
    ProbabilityOfImprovement,
    ThompsonSampling,
    _norm_cdf,
    _norm_pdf,
)
from repro.optimizers.constrained_bo import ConstrainedBayesianOptimizer
from repro.space import ConfigurationSpace, FloatParameter


MEAN = np.array([0.0, 1.0, 2.0])
STD = np.array([1.0, 1.0, 1.0])
BEST = 1.0


class TestPI:
    def test_prefers_lower_mean(self):
        pi = ProbabilityOfImprovement(xi=0.0)
        scores = pi(MEAN, STD, BEST)
        assert scores[0] > scores[1] > scores[2]

    def test_probability_bounds(self):
        pi = ProbabilityOfImprovement()
        scores = pi(MEAN, STD, BEST)
        assert np.all((scores >= 0) & (scores <= 1))

    def test_certain_improvement(self):
        pi = ProbabilityOfImprovement(xi=0.0)
        assert pi(np.array([-100.0]), np.array([0.001]), 0.0)[0] == pytest.approx(1.0)

    def test_xi_validation(self):
        with pytest.raises(OptimizerError):
            ProbabilityOfImprovement(xi=-1.0)


class TestEI:
    def test_nonnegative(self):
        ei = ExpectedImprovement()
        assert np.all(ei(MEAN, STD, BEST) >= 0)

    def test_magnitude_matters(self):
        """EI distinguishes big wins from marginal ones — PI does not."""
        ei = ExpectedImprovement(xi=0.0)
        pi = ProbabilityOfImprovement(xi=0.0)
        mean = np.array([-10.0, -0.1])
        tiny_std = np.array([1e-6, 1e-6])
        pi_scores = pi(mean, tiny_std, 0.0)
        ei_scores = ei(mean, tiny_std, 0.0)
        assert pi_scores[0] == pytest.approx(pi_scores[1])  # both certain
        assert ei_scores[0] > ei_scores[1] * 50  # magnitudes differ

    def test_uncertainty_creates_value(self):
        ei = ExpectedImprovement(xi=0.0)
        same_mean = np.array([2.0, 2.0])
        stds = np.array([0.01, 2.0])
        scores = ei(same_mean, stds, BEST)
        assert scores[1] > scores[0]

    def test_zero_when_hopeless_and_certain(self):
        ei = ExpectedImprovement(xi=0.0)
        assert ei(np.array([100.0]), np.array([1e-9]), 0.0)[0] == pytest.approx(0.0, abs=1e-12)


class TestLCB:
    def test_beta_zero_is_pure_exploitation(self):
        lcb = LowerConfidenceBound(beta=0.0)
        scores = lcb(MEAN, np.array([0.1, 5.0, 10.0]), BEST)
        assert np.argmax(scores) == 0

    def test_large_beta_chases_uncertainty(self):
        lcb = LowerConfidenceBound(beta=100.0)
        scores = lcb(MEAN, np.array([0.1, 5.0, 10.0]), BEST)
        assert np.argmax(scores) == 2

    def test_validation(self):
        with pytest.raises(OptimizerError):
            LowerConfidenceBound(beta=-1.0)


class TestCostAwareEI:
    def test_cheap_points_win_ties(self):
        acq = CostAwareEI(xi=0.0)
        mean = np.array([0.0, 0.0])
        std = np.array([1.0, 1.0])
        costs = np.array([1.0, 10.0])
        scores = acq(mean, std, BEST, costs=costs)
        assert scores[0] == pytest.approx(10.0 * scores[1])

    def test_requires_costs(self):
        acq = CostAwareEI()
        with pytest.raises(OptimizerError):
            acq(MEAN, STD, BEST)

    def test_positive_costs(self):
        acq = CostAwareEI()
        with pytest.raises(OptimizerError):
            acq(MEAN, STD, BEST, costs=np.array([1.0, 0.0, 1.0]))

    def test_cost_shape_mismatch(self):
        acq = CostAwareEI()
        with pytest.raises(OptimizerError):
            acq(MEAN, STD, BEST, costs=np.array([1.0]))


class TestThompson:
    def test_randomized_but_seeded(self):
        rng1 = np.random.default_rng(0)
        rng2 = np.random.default_rng(0)
        a = ThompsonSampling(rng1)(MEAN, STD, BEST)
        b = ThompsonSampling(rng2)(MEAN, STD, BEST)
        assert np.allclose(a, b)

    def test_prefers_low_mean_in_expectation(self):
        ts = ThompsonSampling(np.random.default_rng(0))
        wins = sum(
            int(np.argmax(ts(MEAN, STD * 0.1, BEST)) == 0) for _ in range(100)
        )
        assert wins > 90


def test_shape_validation():
    ei = ExpectedImprovement()
    with pytest.raises(OptimizerError):
        ei(np.zeros(3), np.zeros(2), 0.0)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal as 64-bit patterns; a NaN matches any NaN (its payload is not a value)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return bool(np.array_equal(nan, np.isnan(b)) and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


class TestNormalHelpersAreScipyStatsNorm:
    """``_norm_pdf`` replaced ``scipy.stats.norm.pdf`` on the claim that it
    returns the same bits; ``_norm_cdf`` (the standard library's erfc) is
    within an ulp of the CDF, which the goldens and replay digests tolerate."""

    Z = np.concatenate([
        np.linspace(-40.0, 40.0, 160_001),
        np.random.default_rng(0).standard_normal(50_000) * 5.0,
        [0.0, -0.0, np.inf, -np.inf, np.nan, 38.5, -38.5, 1e154, -1e154, 1e-320],
    ])

    def test_cdf_within_an_ulp_of_ndtr(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cdf = _norm_cdf(self.Z)
        ref = ndtr(self.Z)
        real = ~np.isnan(self.Z)
        assert np.array_equal(np.isnan(cdf), ~real)
        assert np.max(np.abs(cdf[real] - ref[real])) <= 2.3e-16
        tail = real & (ref > 1e-300)
        assert np.max(np.abs(cdf[tail] / ref[tail] - 1.0)) <= 2e-13
        assert same_bits(_norm_cdf(np.array([0.0, -0.0, np.inf, -np.inf])), [0.5, 0.5, 1.0, 0.0])
        assert np.all(np.diff(_norm_cdf(np.sort(self.Z[real]))) >= 0.0)

    def test_pdf_bit_for_bit(self):
        assert same_bits(_norm_pdf(self.Z), stats.norm.pdf(self.Z))

    # A recorded BO step: posterior over five candidates and the incumbent.
    MEAN = np.array([0.31, -1.7, 0.0, 2.4e3, 0.305])
    STD = np.array([0.2, 1e-13, 3.0, 1.0e3, 1e-4])
    BEST = 0.3

    def test_pi_and_ei_match_the_scipy_stats_formulas(self):
        std = np.maximum(self.STD, 1e-12)
        delta = self.BEST - 0.01 - self.MEAN
        z = delta / std
        pi = ProbabilityOfImprovement(xi=0.01)(self.MEAN, self.STD, self.BEST)
        assert same_bits(pi, _norm_cdf(z)) and np.max(np.abs(pi - stats.norm.cdf(z))) <= 2.3e-16
        assert same_bits(
            ExpectedImprovement(xi=0.01)(self.MEAN, self.STD, self.BEST),
            delta * _norm_cdf(z) + std * stats.norm.pdf(z),
        )

    def test_constrained_feasibility_weight_matches_scipy_stats(self):
        space = ConfigurationSpace("c", seed=0)
        space.add(FloatParameter("x", 0.0, 1.0))
        opt = ConstrainedBayesianOptimizer(space, ["c"], seed=0)
        cands = space.sample_many(len(self.MEAN), np.random.default_rng(1))

        class Recorded:
            def __init__(self, mean, std):
                self.mean, self.std = mean, std

            def predict(self, X, return_std=True):
                return self.mean, self.std

        # No feasible trial yet, so the pick is the largest feasibility weight.
        opt.model = Recorded(self.MEAN, self.STD)
        opt.constraint_models = {"c": Recorded(self.MEAN - 0.3, self.STD)}
        weight = stats.norm.cdf(-(self.MEAN - 0.3) / np.maximum(self.STD, 1e-12))
        assert opt._pick(cands) is cands[int(np.argmax(weight))]
