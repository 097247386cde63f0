"""Unit tests for online tuning policies: Q-learning, actor-critic,
hybrid bandits, contextual BO, genetic online."""

import numpy as np
import pytest

from repro.core import Objective
from repro.exceptions import OptimizerError
from repro.online import (
    REWARD,
    ActorCriticTuner,
    ContextualBayesianOptimizer,
    GeneticAlgorithmOptimizer,
    HybridBanditTuner,
    OnlineTuningAgent,
    QLearningTuner,
    StaticConfigPolicy,
)
from repro.space import BooleanParameter, ConfigurationSpace, FloatParameter
from repro.sysim import QUIET_CLOUD, SimulatedDBMS
from repro.workloads import DiurnalTrace, ycsb

from .data.make_online_goldens import run_agent


def toy_space():
    space = ConfigurationSpace("toy", seed=0)
    space.add(FloatParameter("a", 0.0, 1.0, default=0.5))
    space.add(FloatParameter("b", 0.0, 1.0, default=0.5))
    space.add(BooleanParameter("flag", default=False))
    return space


OBS = np.array([0.5, 0.5, 0.0, 0.2, 0.2, 0.2])


def drive(policy, reward_fn, steps=150):
    """Run suggest/observe at the observation :data:`OBS` against a synthetic reward function."""
    policy.observation_fn = lambda: OBS
    values = []
    for _ in range(steps):
        cfg = policy.suggest()[0]
        r = reward_fn(cfg)
        policy.observe(cfg, {"reward": r})
        values.append(r)
    return np.array(values)


def alternate(policy, steps):
    """Drive at a context alternating 0, 1, 0, …, under which the best ``a``
    is 0.2 or 0.8; return each step's distance from it."""
    errors = []
    for step in range(steps):
        context = float(step % 2)
        policy.observation_fn = lambda: np.array([context])
        cfg = policy.suggest()[0]
        target = 0.8 if context > 0.5 else 0.2
        policy.observe(cfg, {"reward": -((cfg["a"] - target) ** 2)})
        errors.append(abs(cfg["a"] - target))
    return errors


def bowl_reward(cfg):
    """Max reward at a=0.8, b=0.2, flag=True."""
    r = -((cfg["a"] - 0.8) ** 2) - (cfg["b"] - 0.2) ** 2
    return r + (0.2 if cfg["flag"] else 0.0)


class TestQLearning:
    def test_improves_over_time(self):
        policy = QLearningTuner(toy_space(), step=0.15, seed=0)
        rewards = drive(policy, bowl_reward, steps=300)
        assert rewards[-50:].mean() > rewards[:50].mean()

    def test_epsilon_anneals(self):
        policy = QLearningTuner(toy_space(), epsilon=0.5, epsilon_decay=0.9, seed=0)
        drive(policy, bowl_reward, steps=50)
        assert policy.epsilon < 0.5 * 0.9**40

    def test_states_discretized(self):
        policy = QLearningTuner(toy_space(), seed=0)
        drive(policy, bowl_reward, steps=30)
        assert len(policy.q) >= 1

    def test_unknown_knob(self):
        with pytest.raises(OptimizerError):
            QLearningTuner(toy_space(), knobs=["nope"])

    def test_step_validation(self):
        with pytest.raises(OptimizerError):
            QLearningTuner(toy_space(), step=0.0)


class TestActorCritic:
    def test_moves_mean_toward_optimum(self):
        policy = ActorCriticTuner(toy_space(), knobs=["a", "b"], seed=0)
        drive(policy, bowl_reward, steps=400)
        greedy = policy.greedy_config(OBS)
        assert abs(greedy["a"] - 0.8) < 0.3
        assert abs(greedy["b"] - 0.2) < 0.3

    def test_sigma_anneals(self):
        policy = ActorCriticTuner(toy_space(), sigma=0.3, sigma_decay=0.9, sigma_min=0.01, seed=0)
        drive(policy, bowl_reward, steps=60)
        assert policy.sigma < 0.05

    def test_requires_numeric_knob(self):
        space = ConfigurationSpace("cat_only")
        space.add(BooleanParameter("x"))
        space.add(BooleanParameter("y"))
        with pytest.raises(OptimizerError):
            ActorCriticTuner(space)


class TestHybridBandit:
    def test_numeric_center_moves(self):
        policy = HybridBanditTuner(toy_space(), seed=0)
        drive(policy, bowl_reward, steps=400)
        center = policy.center_config()
        assert abs(center["a"] - 0.8) < 0.3
        assert abs(center["b"] - 0.2) < 0.3

    def test_bandit_learns_discrete_knob(self):
        policy = HybridBanditTuner(toy_space(), seed=0)
        drive(policy, bowl_reward, steps=400)
        assert policy.center_config()["flag"] is True


class TestContextualBO:
    def test_adapts_to_context(self):
        """Reward optimum depends on the context: the GP must learn both."""
        policy = ContextualBayesianOptimizer(toy_space(), n_init=5, n_candidates=48, seed=0)
        # After 60 training steps, proposals must track the context-dependent optimum.
        errors = alternate(policy, 68)[60:]
        assert np.median(errors) < 0.2

    def test_n_init_validation(self):
        with pytest.raises(OptimizerError):
            ContextualBayesianOptimizer(toy_space(), n_init=0)

    @staticmethod
    def fitted_shapes(policy):
        """Record the shape of every training matrix the policy's GP is fitted on."""
        shapes, fit = [], policy.model.fit

        def spy(X, y):
            shapes.append(X.shape)
            return fit(X, y)

        policy.model.fit = spy
        return shapes

    def test_model_rows_are_config_plus_observation(self):
        policy = ContextualBayesianOptimizer(toy_space(), n_init=4, n_candidates=32, seed=0)
        shapes = self.fitted_shapes(policy)
        drive(policy, bowl_reward, steps=10)
        width = policy.encoder.n_features + len(OBS)
        assert shapes and {cols for _, cols in shapes} == {width}

    def test_every_feedback_reaches_the_next_proposal(self):
        """Past the initial design, each proposal is scored on a model fitted on all feedbacks so far."""
        policy = ContextualBayesianOptimizer(toy_space(), n_init=4, n_candidates=32, seed=0)
        policy.observation_fn = lambda: OBS
        shapes = self.fitted_shapes(policy)
        for n_fed in range(20):
            cfg = policy.suggest()[0]
            assert len(shapes) == max(0, n_fed - 3)
            if n_fed >= 4:
                assert shapes[-1][0] == n_fed
            policy.observe(cfg, {"reward": bowl_reward(cfg)})

    @pytest.mark.parametrize("guardrail", [True, False], ids=["guardrail-on", "guardrail-off"])
    def test_golden_runs_never_degrade(self, guardrail):
        """No suggestion of the recorded online runs fell back to random sampling."""
        agent, _ = run_agent("contextual-bo", guardrail)
        assert agent.policy.surrogate_stats()["degraded_total"] == 0


class TestGeneticOnline:
    def test_improves(self):
        ga = GeneticAlgorithmOptimizer(toy_space(), population_size=8, seed=0, objectives=REWARD)
        rewards = drive(ga, bowl_reward, steps=200)
        assert rewards[-40:].mean() > rewards[:40].mean()


class TestPoliciesOnSimulatedSystem:
    """Smoke: each policy survives a real agent loop on the DBMS."""

    @pytest.mark.parametrize(
        "make_policy",
        [
            lambda s: QLearningTuner(s, seed=0),
            lambda s: ActorCriticTuner(s, seed=0),
            lambda s: HybridBanditTuner(s, seed=0),
            lambda s: StaticConfigPolicy(s.default_configuration()),
        ],
    )
    def test_policy_runs(self, make_policy):
        db = SimulatedDBMS(env=QUIET_CLOUD(seed=0), seed=0)
        sub = db.space.subspace(["buffer_pool_mb", "worker_threads", "work_mem_mb"])
        agent = OnlineTuningAgent(db, make_policy(sub), Objective("throughput", minimize=False))
        result = agent.run(DiurnalTrace(ycsb("b"), length=8))
        assert len(result.records) == 8
        assert np.all(np.isfinite(result.values()))
