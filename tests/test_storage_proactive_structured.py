"""Unit tests for history persistence, proactive tuning, structured BO."""

import numpy as np
import pytest

from repro.core import (
    JsonJournalStore,
    MemoryTrialStore,
    Objective,
    SessionMeta,
    TrialStatus,
    TuningSession,
    decode_trial,
    encode_trial,
)
from repro.exceptions import OptimizerError, ReproError
from repro.online import OnlineTuningAgent, ProactiveForecastTuner, StaticConfigPolicy
from repro.optimizers import (
    BayesianOptimizer,
    RandomSearchOptimizer,
    StructuredBayesianOptimizer,
    warm_start_from_history,
)
from repro.space import (
    BooleanParameter,
    ConfigurationSpace,
    EqualsCondition,
    FloatParameter,
)
from repro.space.serialize import space_to_dict
from repro.sysim import QUIET_CLOUD, SimulatedDBMS
from repro.workloads import DiurnalTrace, ycsb


class TestStorage:
    def make_history(self, simple_space, n=8):
        opt = RandomSearchOptimizer(simple_space, Objective("lat"), seed=0)
        for i in range(n):
            cfg = opt.suggest(1)[0]
            if i % 4 == 3:
                opt.observe_failure(cfg)
            else:
                opt.observe(cfg, float(i), cost=2.0, context={"machine": f"vm-{i}"})
        return opt.history

    @staticmethod
    def journal(history, store, space) -> None:
        """Persist a history the supported way: one record per trial in a store."""
        store.create_session(
            SessionMeta(
                session_id="run",
                space=space_to_dict(space),
                optimizer={"name": "random", "seed": 0, "options": {}},
                objectives=[{"name": "lat", "minimize": True}],
                max_trials=len(history),
            )
        )
        for trial in history:
            assert store.append_trial("run", encode_trial(trial)).trial_id == trial.trial_id

    @staticmethod
    def load(store, space):
        return [decode_trial(record, space) for record in store.load_trials("run")]

    def test_roundtrip_trials(self, simple_space, tmp_path):
        history = self.make_history(simple_space)
        self.journal(history, JsonJournalStore(tmp_path, fsync=False), simple_space)
        loaded = self.load(JsonJournalStore(tmp_path), simple_space)  # re-opened from disk
        assert len(loaded) == 8
        for original, restored in zip(history.trials, loaded):
            assert restored.config == original.config
            assert restored.status == original.status
            assert restored.metrics == original.metrics
            assert restored.cost == original.cost
            assert restored.context == original.context

    def test_loaded_trials_warm_start(self, simple_space, tmp_path):
        history = self.make_history(simple_space)
        self.journal(history, JsonJournalStore(tmp_path, fsync=False), simple_space)
        opt = RandomSearchOptimizer(simple_space, Objective("lat"), seed=1)
        loaded = self.load(JsonJournalStore(tmp_path), simple_space)
        n = warm_start_from_history(opt, loaded, top_fraction=1.0)
        assert n == 8
        assert opt.history.best_value() == 0.0

    def test_cross_space_load_drops_unknown_knobs(self, simple_space):
        store = MemoryTrialStore()
        self.journal(self.make_history(simple_space), store, simple_space)
        sub = simple_space.subspace(["x", "y"])
        loaded = self.load(store, sub)
        assert set(loaded[0].config) == {"x", "y"}


class TestProactiveForecastTuner:
    def test_validation(self, simple_space):
        with pytest.raises(ReproError):
            ProactiveForecastTuner(simple_space, period=24, n_bands=1)
        with pytest.raises(ReproError):
            ProactiveForecastTuner(simple_space, period=24, explore_prob=2.0)

    def test_learns_per_band_incumbents(self):
        """Synthetic: reward depends on (load band × config); the policy
        should store different incumbents per band."""
        space = ConfigurationSpace("p", seed=0)
        space.add(FloatParameter("x", 0.0, 1.0, default=0.5))
        policy = ProactiveForecastTuner(space, period=8, n_bands=2, explore_prob=0.5, seed=0)
        rng = np.random.default_rng(0)
        for step in range(400):
            load = 0.2 if (step % 8) < 4 else 0.8  # square-wave load
            policy.observation_fn = lambda: np.array([load])
            cfg = policy.suggest()[0]
            target = 0.2 if load < 0.5 else 0.8  # optimum follows load
            policy.observe(cfg, {"reward": -((cfg["x"] - target) ** 2)})
        xs = [c["x"] for c in policy.band_incumbents]
        assert min(xs) < 0.45 and max(xs) > 0.55  # bands diverged

    def test_runs_on_simulated_system(self):
        db = SimulatedDBMS(env=QUIET_CLOUD(seed=0), seed=0)
        sub = db.space.subspace(["buffer_pool_mb", "worker_threads"])
        policy = ProactiveForecastTuner(sub, period=12, seed=0)
        agent = OnlineTuningAgent(db, policy, Objective("throughput", minimize=False))
        result = agent.run(DiurnalTrace(ycsb("b"), length=40, period=12))
        assert len(result.records) == 40
        assert np.all(np.isfinite(result.values()))


class TestStructuredBO:
    def jit_space(self):
        space = ConfigurationSpace("s", seed=0)
        space.add(BooleanParameter("jit", default=False))
        space.add(FloatParameter("jit_cost", 0.0, 1.0, default=0.5))
        space.add(FloatParameter("x", 0.0, 1.0, default=0.5))
        space.add_condition(EqualsCondition("jit_cost", "jit", True))
        return space

    @staticmethod
    def evaluator(config):
        """jit=on is better iff jit_cost is tuned near 0.2."""
        base = (config["x"] - 0.6) ** 2
        if config["jit"]:
            base += 0.5 * (config["jit_cost"] - 0.2) ** 2 - 0.05
        return base, 1.0

    def test_learns_the_pattern_covariance(self):
        """One GP over both activation patterns: the coregionalised kernel's
        2 × 2 pattern covariance is fitted, and the patterns share strength."""
        opt = StructuredBayesianOptimizer(self.jit_space(), n_init=10, seed=0, n_candidates=96)
        prior = opt.model.kernel.k1.task_covariance()
        TuningSession(opt, self.evaluator, max_trials=30).run()
        B = opt.model.kernel.k1.task_covariance()  # {jit off} is pattern 0, {jit on} pattern 1
        assert B.shape == (2, 2) and not np.allclose(B, prior)
        assert 0.0 < B[0, 1] / np.sqrt(B[0, 0] * B[1, 1]) <= 1.0

    def test_finds_the_conditional_optimum(self):
        opt = StructuredBayesianOptimizer(self.jit_space(), n_init=10, seed=0, n_candidates=128)
        res = TuningSession(opt, self.evaluator, max_trials=40).run()
        assert res.best_config["jit"] is True
        assert abs(res.best_config["jit_cost"] - 0.2) < 0.2
        assert res.best_value < 0.0

    def test_competitive_with_flat_bo(self):
        bests = {"structured": [], "flat": []}
        for seed in range(2):
            s_opt = StructuredBayesianOptimizer(self.jit_space(), n_init=8, seed=seed, n_candidates=96)
            f_opt = BayesianOptimizer(self.jit_space(), n_init=8, seed=seed, n_candidates=96)
            bests["structured"].append(
                TuningSession(s_opt, self.evaluator, max_trials=30).run().best_value
            )
            bests["flat"].append(
                TuningSession(f_opt, self.evaluator, max_trials=30).run().best_value
            )
        assert np.mean(bests["structured"]) <= np.mean(bests["flat"]) + 0.02

    def test_degrades_to_single_group_without_conditions(self, simple_space):
        """One activation pattern means no column: exactly BO's suggestions."""
        runs = []
        for cls in (StructuredBayesianOptimizer, BayesianOptimizer):
            opt = cls(simple_space, n_init=5, n_candidates=64, seed=3)
            for _ in range(10):
                cfg = opt.suggest(1)[0]
                opt.observe(cfg, float(np.sum(simple_space.to_unit_array(cfg))))
            runs.append([t.config for t in opt.history] + opt.suggest(3) + opt.suggest(1))
        assert runs[0] == runs[1]

    def test_validation(self, simple_space):
        with pytest.raises(OptimizerError):
            StructuredBayesianOptimizer(simple_space, n_init=0)
