"""Unit tests for SMAC, CMA-ES, PSO, and the genetic algorithm."""

import warnings

import numpy as np
import pytest

from repro.core import Objective, TuningSession
from repro.exceptions import OptimizerError
from repro.online import GeneticAlgorithmOptimizer
from repro.optimizers import CMAESOptimizer, ParticleSwarmOptimizer, SMACOptimizer
from repro.optimizers.pso import V_MAX
from repro.space import CategoricalParameter, ConfigurationSpace, FloatParameter

from .conftest import quadratic_evaluator


def bowl_space(n=2, with_cat=False):
    space = ConfigurationSpace("bowl", seed=0)
    for i in range(n):
        space.add(FloatParameter(f"x{i}", 0.0, 1.0))
    if with_cat:
        space.add(CategoricalParameter("mode", ["good", "bad", "awful"]))
    return space


def cat_evaluator(config):
    penalty = {"good": 0.0, "bad": 1.0, "awful": 3.0}.get(config.get("mode", "good"), 0.0)
    base, _ = quadratic_evaluator()(config)
    return base + penalty, 1.0


class TestSMAC:
    def test_converges(self):
        opt = SMACOptimizer(bowl_space(2), n_init=6, seed=0, n_candidates=128)
        res = TuningSession(opt, quadratic_evaluator(), max_trials=35).run()
        assert res.best_value < 0.05

    def test_healthy_campaign_is_clean_under_warnings_as_errors(self, monkeypatch):
        """120 trials on an 8-D bowl: no numpy RuntimeWarning anywhere in the
        fit/predict path, and so not one degraded (random-fallback)
        suggestion. The forest once cumsummed an ``np.empty`` pad, which
        only warned when the allocator handed back dirty memory — so
        ``np.empty`` is poisoned here to make any such read overflow."""
        real_empty = np.empty

        def poisoned_empty(*args, **kwargs):
            out = real_empty(*args, **kwargs)
            if out.dtype.kind == "f":
                out.fill(np.finfo(out.dtype).max)
            return out

        monkeypatch.setattr(np, "empty", poisoned_empty)
        opt = SMACOptimizer(bowl_space(8), seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            TuningSession(opt, quadratic_evaluator(), max_trials=120).run()
        stats = opt.surrogate_stats()
        assert stats["n_fits"] + stats["n_partial_fits"] > 0
        assert stats["degraded_total"] == 0

    def test_handles_categoricals(self):
        opt = SMACOptimizer(bowl_space(1, with_cat=True), n_init=8, seed=0, n_candidates=128)
        res = TuningSession(opt, cat_evaluator, max_trials=40).run()
        assert res.best_config["mode"] == "good"

    def test_random_interleaving(self):
        """Every (interleave+1)-th model-phase suggestion is random."""
        opt = SMACOptimizer(bowl_space(1), n_init=2, interleave=1, seed=0, n_candidates=32)
        for _ in range(4):
            c = opt.suggest(1)[0]
            opt.observe(c, quadratic_evaluator()(c)[0])
        # After init, suggestions alternate model/random; just verify they flow.
        batch = opt.suggest(4)
        assert len(batch) == 4

    def test_interleave_counts_model_phase_only(self):
        """The n_init random phase must not shift the interleave cycle."""
        for n_init in (2, 3, 4, 5):
            opt = SMACOptimizer(bowl_space(1), n_init=n_init, interleave=3, seed=0)
            for _ in range(n_init):
                c = opt.suggest(1)[0]
                opt.observe(c, quadratic_evaluator()(c)[0])
            # Whatever n_init was, no model-guided suggestion has happened
            # yet, so the counter starts the cycle at zero.
            assert opt._suggestion_count == 0
            for _ in range(4):
                c = opt.suggest(1)[0]
                opt.observe(c, quadratic_evaluator()(c)[0])
            assert opt._suggestion_count == 4

    def test_surrogate_stats_exposes_forest_counters(self):
        opt = SMACOptimizer(bowl_space(2), n_init=3, n_candidates=32, n_trees=6, seed=0)
        for _ in range(6):
            c = opt.suggest(1)[0]
            opt.observe(c, quadratic_evaluator()(c)[0])
        stats = opt.surrogate_stats()
        for key in ("fit_ms", "predict_ms", "n_fits", "n_partial_fits",
                    "n_trees", "n_nodes", "trees_grown",
                    "pending_fantasies", "fantasies_total",
                    "encode_cache_hits", "encode_cache_misses"):
            assert key in stats, key
        assert stats["n_fits"] >= 1
        assert stats["n_trees"] == 6

    def test_batch_ask_counts_each_pick_as_a_predict(self):
        opt = SMACOptimizer(bowl_space(2), n_init=3, interleave=0, n_candidates=32, n_trees=6, seed=0)
        for _ in range(4):
            c = opt.suggest(1)[0]
            opt.observe(c, quadratic_evaluator()(c)[0])
        before = opt.surrogate_stats()
        assert len(opt.suggest(3)) == 3
        after = opt.surrogate_stats()
        assert after["n_predicts"] == before["n_predicts"] + 3
        assert after["predict_ms"] > before["predict_ms"]

    def test_refit_cadence_uses_partial_fit(self):
        opt = SMACOptimizer(bowl_space(2), n_init=4, interleave=0,
                            n_candidates=32, n_trees=6, seed=0)
        for _ in range(10):
            c = opt.suggest(1)[0]
            opt.observe(c, quadratic_evaluator()(c)[0])
        stats = opt.surrogate_stats()
        # One cold fit when the surrogate takes over, warm updates after.
        assert stats["n_fits"] == 1
        assert stats["n_partial_fits"] >= 4

    def test_batch_suggest_fantasizes_and_cleans_up(self):
        opt = SMACOptimizer(bowl_space(2), n_init=4, interleave=0,
                            n_candidates=64, n_trees=6, seed=0)
        for _ in range(6):
            c = opt.suggest(1)[0]
            opt.observe(c, quadratic_evaluator()(c)[0])
        batch = opt.suggest(5)
        assert len(batch) == 5
        # Constant-liar deflation pushes picks apart: no duplicates.
        assert len({tuple(sorted(c.items())) for c in batch}) == 5
        stats = opt.surrogate_stats()
        assert stats["fantasies_total"] >= 4
        assert stats["pending_fantasies"] == 0  # always discarded after the batch

    def test_batch_suggest_deterministic_given_seed(self):
        def run():
            opt = SMACOptimizer(bowl_space(2), n_init=4, n_candidates=64,
                                n_trees=6, seed=11)
            rng = np.random.default_rng(1)
            for _ in range(6):
                c = opt.space.sample(rng)
                opt.observe(c, quadratic_evaluator()(c)[0])
            return [dict(c) for c in opt.suggest(6)]

        assert run() == run()

    def test_validation(self):
        with pytest.raises(OptimizerError):
            SMACOptimizer(bowl_space(1), n_init=0)
        with pytest.raises(OptimizerError):
            SMACOptimizer(bowl_space(1), interleave=-1)


class TestCMAES:
    def test_converges_on_bowl(self):
        opt = CMAESOptimizer(bowl_space(3), seed=0)
        res = TuningSession(opt, quadratic_evaluator(), max_trials=120).run()
        assert res.best_value < 0.02

    def test_sigma_adapts(self):
        opt = CMAESOptimizer(bowl_space(2), seed=0)
        TuningSession(opt, quadratic_evaluator(), max_trials=80).run()
        assert opt.generation >= 5
        assert 1e-8 <= opt.sigma <= 1.0

    def test_mean_moves_toward_optimum(self):
        opt = CMAESOptimizer(bowl_space(2), seed=0)
        TuningSession(opt, quadratic_evaluator(), max_trials=100).run()
        assert np.abs(opt.mean - 0.3).max() < 0.2

    def test_ignores_warm_start_observations(self, simple_space):
        opt = CMAESOptimizer(simple_space, seed=0)
        cfg = simple_space.default_configuration()
        opt.observe(cfg, 1.0)  # not suggested by CMA-ES
        assert opt._results == []


class TestPSO:
    def test_converges_on_bowl(self):
        opt = ParticleSwarmOptimizer(bowl_space(2), n_particles=10, seed=0)
        res = TuningSession(opt, quadratic_evaluator(), max_trials=120).run()
        assert res.best_value < 0.02

    def test_gbest_tracks_minimum(self):
        opt = ParticleSwarmOptimizer(bowl_space(1), n_particles=5, seed=0)
        TuningSession(opt, quadratic_evaluator(), max_trials=40).run()
        assert opt.gbest_score < 0.05

    def test_velocity_clamped(self):
        opt = ParticleSwarmOptimizer(bowl_space(2), n_particles=5, seed=0)
        TuningSession(opt, quadratic_evaluator(), max_trials=30).run()
        assert np.abs(opt.velocities).max() <= V_MAX + 1e-12

    def test_validation(self):
        with pytest.raises(OptimizerError):
            ParticleSwarmOptimizer(bowl_space(1), n_particles=1)


class TestGeneticAlgorithm:
    def test_converges_on_bowl(self):
        opt = GeneticAlgorithmOptimizer(bowl_space(2), population_size=10, seed=0)
        res = TuningSession(opt, quadratic_evaluator(), max_trials=120).run()
        assert res.best_value < 0.05

    def test_elites_survive(self):
        opt = GeneticAlgorithmOptimizer(
            bowl_space(1), population_size=6, elite_fraction=0.34, seed=0
        )
        res = TuningSession(opt, quadratic_evaluator(), max_trials=60).run()
        assert opt.generation >= 5
        # The best config must persist across generations.
        assert any(c == res.best_config for c in opt._population)

    def test_handles_categoricals(self):
        opt = GeneticAlgorithmOptimizer(
            bowl_space(1, with_cat=True), population_size=10, seed=0
        )
        res = TuningSession(opt, cat_evaluator, max_trials=100).run()
        assert res.best_config["mode"] == "good"

    def test_score_ties_are_no_error(self):
        opt = GeneticAlgorithmOptimizer(bowl_space(2), population_size=4, seed=0)
        TuningSession(opt, lambda config: (1.0, 1.0), max_trials=16).run()
        assert opt.generation >= 3

    def test_a_tell_from_a_replaced_generation_scores_nobody(self):
        opt = GeneticAlgorithmOptimizer(bowl_space(2), population_size=4, seed=0)
        for score, config in enumerate(opt.suggest(3)):
            opt.observe(config, float(score))
        straggler, first_child = opt.suggest(2)  # the last of generation 0, then generation 1 opens
        assert opt.generation == 1
        opt.observe(straggler, 0.0)
        assert opt._scores == [None] * 4
        opt.observe(first_child, 2.0)
        assert opt._scores == [2.0, None, None, None]

    def test_validation(self):
        with pytest.raises(OptimizerError):
            GeneticAlgorithmOptimizer(bowl_space(1), population_size=2)
        with pytest.raises(OptimizerError):
            GeneticAlgorithmOptimizer(bowl_space(1), elite_fraction=1.0)
