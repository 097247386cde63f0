"""Unit tests for knob importance, convergence comparison, reporting."""

import numpy as np
import pytest

from repro.analysis import (
    LassoImportance,
    compare_optimizers,
    format_table,
    format_value,
    lasso_coordinate_descent,
    permutation_importance,
)
from repro.core import Objective, TuningSession
from repro.exceptions import OptimizerError
from repro.optimizers import BayesianOptimizer, RandomSearchOptimizer
from repro.space import CategoricalParameter, ConfigurationSpace, FloatParameter

from .conftest import quadratic_evaluator


def importance_space():
    """Two knobs that matter a lot, one mild, three junk, one categorical."""
    space = ConfigurationSpace("imp", seed=0)
    for name in ("big1", "big2", "mild", "junk1", "junk2", "junk3"):
        space.add(FloatParameter(name, 0.0, 1.0))
    space.add(CategoricalParameter("engine", ["x", "y"]))
    return space


def importance_evaluator(config):
    # big1's effect is monotone: Lasso is a *linear* screen (OtterTune's
    # known limitation — it can miss purely symmetric effects).
    value = (
        5.0 * (config["big1"] - 0.1) ** 2
        + 4.0 * abs(config["big2"] - 0.3)
        + 0.4 * config["mild"]
        + (1.0 if config["engine"] == "y" else 0.0)
    )
    return value, 1.0


def build_history(n=80, seed=0):
    space = importance_space()
    opt = RandomSearchOptimizer(space, Objective("score"), seed=seed)
    TuningSession(opt, importance_evaluator, max_trials=n).run()
    return space, opt.history


class TestLassoSolver:
    def test_recovers_sparse_coefficients(self, rng):
        X = rng.standard_normal((200, 6))
        true_w = np.array([3.0, 0.0, -2.0, 0.0, 0.0, 0.0])
        y = X @ true_w + rng.normal(0, 0.05, 200)
        w = lasso_coordinate_descent(X, y, alpha=0.05)
        assert abs(w[0] - 3.0) < 0.3 and abs(w[2] + 2.0) < 0.3
        assert np.abs(w[[1, 3, 4, 5]]).max() < 0.1

    def test_strong_alpha_zeroes_everything(self, rng):
        X = rng.standard_normal((50, 3))
        y = X[:, 0]
        w = lasso_coordinate_descent(X, y, alpha=100.0)
        assert np.allclose(w, 0.0)

    def test_zero_alpha_is_least_squares(self, rng):
        X = rng.standard_normal((100, 2))
        y = 2.0 * X[:, 0] - 1.0 * X[:, 1]
        w = lasso_coordinate_descent(X, y, alpha=0.0)
        assert np.allclose(w, [2.0, -1.0], atol=0.05)

    def test_validation(self):
        with pytest.raises(OptimizerError):
            lasso_coordinate_descent(np.zeros((3, 2)), np.zeros(4), 0.1)
        with pytest.raises(OptimizerError):
            lasso_coordinate_descent(np.zeros((3, 2)), np.zeros(3), -0.1)


class TestLassoImportance:
    def test_important_knobs_rank_first(self):
        space, history = build_history()
        ranking = LassoImportance(space).rank(history)
        top3 = ranking.top(3)
        assert "big1" in top3 and "big2" in top3

    def test_junk_ranks_last(self):
        space, history = build_history()
        ranking = LassoImportance(space).rank(history)
        bottom = ranking.knobs[-3:]
        assert len(set(bottom) & {"junk1", "junk2", "junk3"}) >= 2

    def test_needs_trials(self):
        space = importance_space()
        opt = RandomSearchOptimizer(space, Objective("score"), seed=0)
        with pytest.raises(OptimizerError):
            LassoImportance(space).rank(opt.history)


class TestPermutationImportance:
    def test_important_knobs_rank_first(self):
        space, history = build_history()
        ranking = permutation_importance(space, history, seed=0)
        assert set(ranking.top(3)) & {"big1", "big2"}

    def test_junk_scores_near_zero(self):
        space, history = build_history()
        ranking = permutation_importance(space, history, seed=0)
        score = dict(zip(ranking.knobs, ranking.scores))
        assert score["junk1"] < score["big1"] / 5


class TestCompareOptimizers:
    def test_runs_all_factories_and_seeds(self, simple_space):
        results = compare_optimizers(
            {
                "random": lambda s: RandomSearchOptimizer(simple_space, Objective("score"), seed=s),
            },
            lambda s: quadratic_evaluator(),
            max_trials=10,
            n_seeds=2,
        )
        comp = results["random"]
        assert len(comp.results) == 2
        assert [r.n_trials for r in comp.results] == [10, 10]

    def test_metrics(self, simple_space):
        results = compare_optimizers(
            {"r": lambda s: RandomSearchOptimizer(simple_space, Objective("score"), seed=s)},
            lambda s: quadratic_evaluator(),
            max_trials=15,
            n_seeds=2,
        )
        comp = results["r"]
        assert 1 <= comp.mean_trials_to(1.0) <= 15
        assert 0.0 <= comp.reach_rate(0.0001) <= 1.0
        assert comp.mean_best() >= 0.0


class TestReporting:
    def test_format_value(self):
        assert format_value(0.000123) == "0.000123"
        assert format_value(1234567.0) == "1.23e+06"
        assert format_value(True) == "True"
        assert format_value("abc") == "abc"
        assert format_value(0.0) == "0"

    def test_table_alignment(self):
        table = format_table(
            ["name", "value"], [["a", 1.0], ["long-name", 123456.0]], title="T"
        )
        lines = table.splitlines()
        assert lines[0] == "== T =="
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all rows padded to same width
