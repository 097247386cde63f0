"""Unit tests for multi-fidelity BO and Hyperband's successive halving."""

import numpy as np
import pytest

from repro.core import Objective
from repro.exceptions import OptimizerError
from repro.optimizers import FidelityLevel, HyperbandOptimizer, MultiFidelityBO
from repro.space import ConfigurationSpace, FloatParameter


def space_1d():
    s = ConfigurationSpace("mf", seed=0)
    s.add(FloatParameter("x", 0.0, 1.0))
    return s


def fidelity_function(x, fid):
    """True objective at full fidelity; biased + noisier when cheap."""
    true = (x - 0.7) ** 2
    bias = (1.0 - fid) * 0.15 * np.sin(8 * x)
    return true + bias


FIDS = [FidelityLevel(0.1, cost=1.0), FidelityLevel(1.0, cost=10.0)]
LEVELS = {level.value: level for level in FIDS}


class TestMultiFidelityBO:
    def run_loop(self, opt, n=40, seed=0):
        rng = np.random.default_rng(seed)
        for _ in range(n):
            cfg = opt.suggest(1)[0]
            fid = LEVELS[opt.suggested_fidelity(opt.n_suggested - 1)]
            y = fidelity_function(cfg["x"], fid.value) + rng.normal(0, 0.002)
            opt.observe(cfg, y, cost=fid.cost, fidelity=fid.value)

    def test_mixes_fidelities(self):
        opt = MultiFidelityBO(space_1d(), FIDS, n_init=5, n_candidates=64, seed=0)
        self.run_loop(opt)
        used = {t.fidelity for t in opt.history.trials}
        assert 0.1 in used and 1.0 in used

    def test_cheap_fidelity_dominates_counts(self):
        """Cost-adjusted EI should buy many cheap probes per dear one."""
        opt = MultiFidelityBO(space_1d(), FIDS, n_init=5, full_every=4, n_candidates=64, seed=0)
        self.run_loop(opt)
        counts = {}
        for t in opt.history.trials:
            counts[t.fidelity] = counts.get(t.fidelity, 0) + 1
        assert counts.get(0.1, 0) > counts.get(1.0, 0)

    def test_finds_optimum_at_target_fidelity(self):
        opt = MultiFidelityBO(space_1d(), FIDS, n_init=5, n_candidates=64, seed=0)
        self.run_loop(opt, n=50)
        full = [t for t in opt.history.completed() if t.fidelity == 1.0]
        best = min(full, key=lambda t: t.metric("score"))
        assert abs(best.config["x"] - 0.7) < 0.15

    def test_initial_design_at_cheapest(self):
        opt = MultiFidelityBO(space_1d(), FIDS, n_init=4, n_candidates=64, seed=0)
        for _ in range(4):
            (cfg,) = opt.suggest(1)
            number = opt.n_suggested - 1
            assert opt.suggested_fidelity(number) == 0.1
            opt.observe(cfg, 1.0, fidelity=0.1)
            assert opt.suggested_fidelity(number) is None  # told: no longer a pending suggestion

    def test_full_every_forces_target(self):
        opt = MultiFidelityBO(space_1d(), FIDS, n_init=2, full_every=1, n_candidates=32, seed=0)
        self.run_loop(opt, n=6)
        # After init every suggestion must be at the target fidelity.
        post_init = [t.fidelity for t in opt.history.trials[2:]]
        assert all(f == 1.0 for f in post_init)

    def test_learns_how_the_levels_correlate(self):
        """The discount of a cheap level is the kernel's learned level correlation,
        not a constant: the fit moves it off its prior."""
        opt = MultiFidelityBO(space_1d(), FIDS, n_init=5, n_candidates=64, seed=0)
        prior = opt.model.kernel.k1.task_covariance()
        self.run_loop(opt, n=30)
        B = opt.model.kernel.k1.task_covariance()
        assert B.shape == (2, 2) and not np.allclose(B, prior)
        assert 0.0 < B[0, 1] / np.sqrt(B[0, 0] * B[1, 1]) <= 1.0

    def test_observe_refuses_a_fidelity_off_the_ladder(self):
        opt = MultiFidelityBO(space_1d(), FIDS, n_init=2, n_candidates=16, seed=0)
        with pytest.raises(OptimizerError, match="not on the ladder"):
            opt.observe(opt.space.sample(), 1.0, fidelity=0.5)
        with pytest.raises(OptimizerError, match="not on the ladder"):
            opt.observe_failure(opt.space.sample(), fidelity=2.0)
        assert len(opt.history) == 0
        opt.observe(opt.space.sample(), 1.0)  # no fidelity: the target level
        assert len(opt.history) == 1

    def test_validation(self):
        with pytest.raises(OptimizerError):
            MultiFidelityBO(space_1d(), [FidelityLevel(1.0, 1.0)])
        with pytest.raises(OptimizerError):
            MultiFidelityBO(space_1d(), [FidelityLevel(1.0, 1.0), FidelityLevel(1.0, 2.0)])
        with pytest.raises(OptimizerError):
            FidelityLevel(1.0, cost=0.0)


def halving(evaluate, max_budget=9.0, minimize=True):
    """Drive a Hyperband optimizer through its first bracket (one successive-
    halving run); returns the optimizer and the told ``(config, budget)`` pairs."""
    opt = HyperbandOptimizer(space_1d(), Objective("score", minimize=minimize), seed=0, max_budget=max_budget)
    told = []
    while True:
        config = opt.suggest(1)[0]
        budget = opt.suggested_fidelity(opt.n_suggested - 1)
        if told and budget < told[-1][1]:  # the next bracket began
            return opt, told
        opt.observe(config, evaluate(config, budget), cost=budget, fidelity=budget)
        told.append((config, budget))


def rung_sizes(told):
    budgets = [budget for _, budget in told]
    return [budgets.count(b) for b in sorted(set(budgets))]


class TestSuccessiveHalving:
    """Rung promotion inside :class:`HyperbandOptimizer`: a finished rung's best
    third is suggested again at three times the budget."""

    def test_survivor_is_best(self):
        opt, told = halving(lambda c, b: (c["x"] - 0.7) ** 2)  # noise-free
        first_rung = [c for c, b in told if b == 1.0]
        assert opt.best_config() == min(first_rung, key=lambda c: (c["x"] - 0.7) ** 2)
        assert abs(opt.best_config()["x"] - 0.7) < 0.1

    def test_rungs_shrink_by_eta(self):
        _, told = halving(lambda c, b: c["x"], max_budget=9.0)
        assert rung_sizes(told) == [9, 3, 1]
        _, told = halving(lambda c, b: c["x"], max_budget=81.0)
        assert rung_sizes(told) == [81, 27, 9, 3, 1]
        assert sorted({b for _, b in told}) == [1.0, 3.0, 9.0, 27.0, 81.0]

    def test_noisy_small_budgets_filtered_by_later_rungs(self, rng):
        def noisy_eval(cfg, budget):
            noise = rng.normal(0, 0.3 / budget)  # bigger budget = less noise
            return (cfg["x"] - 0.7) ** 2 + noise

        opt, _ = halving(noisy_eval, max_budget=27.0)
        assert abs(opt.best_config()["x"] - 0.7) < 0.35

    def test_maximize_mode(self):
        opt, told = halving(lambda c, b: c["x"], minimize=False)
        assert opt.best_config()["x"] == max(c["x"] for c, b in told if b == 1.0)

    def test_a_forgotten_suggestion_does_not_hold_its_rung_open(self):
        """An ask evicted untold: its rung closes on the other eight at the next suggest."""
        opt = HyperbandOptimizer(space_1d(), Objective("score"), seed=0, max_budget=9.0)
        first = opt.suggest(9)
        for number, config in enumerate(first[:8]):
            opt.observe(config, (config["x"] - 0.7) ** 2, fidelity=1.0, suggestion=number)
        opt.forget(8)
        opt.suggest(1)
        config, (budget, bracket) = opt.untold(9)
        assert (budget, bracket) == (3.0, opt._brackets[0])  # the first bracket's second rung, not a new bracket
        assert config == min(first[:8], key=lambda c: (c["x"] - 0.7) ** 2)

    def test_validation(self):
        with pytest.raises(OptimizerError):
            HyperbandOptimizer(space_1d(), min_budget=0.0)
        with pytest.raises(OptimizerError):
            HyperbandOptimizer(space_1d(), max_budget=1.0)

    def test_failures_rank_last_and_foreign_trials_enter_no_rung(self):
        opt = HyperbandOptimizer(space_1d(), Objective("score"), seed=0, max_budget=9.0)
        opt.observe(space_1d().make({"x": 0.7}), 0.0, fidelity=9.0)  # not suggested: history only
        first = opt.suggest(9)
        assert {opt.suggested_fidelity(k) for k in range(9)} == {1.0}
        for k, config in enumerate(first):
            if k == 0:
                opt.observe_failure(config, fidelity=1.0)
            else:
                opt.observe(config, (config["x"] - 0.7) ** 2, fidelity=1.0)
        promoted = opt.suggest(3)
        assert first[0] not in promoted
        assert {opt.suggested_fidelity(k) for k in range(9, 12)} == {3.0}
        assert opt.best_config()["x"] == 0.7  # the best trial at the top budget, whoever ran it
