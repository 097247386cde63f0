"""Online/offline symmetry adapters: one ask/tell surface over both worlds."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Objective, TuningSession
from repro.execution import ThreadedExecutor
from repro.online import GreedyOnlineTuner, OnlinePolicyOptimizer, OptimizerPolicy
from repro.optimizers import RandomSearchOptimizer
from repro.telemetry import TelemetryCallback


class TestOnlinePolicyOptimizer:
    def test_policy_drives_offline_session(self, simple_space):
        policy = GreedyOnlineTuner(simple_space, seed=0)
        opt = OnlinePolicyOptimizer(simple_space, policy, objectives=Objective("lat"), seed=0)
        res = TuningSession(opt, lambda c: {"lat": float(c["x"])}, max_trials=12).run()
        assert res.n_trials == 12
        assert len(opt.history) == 12
        # The policy actually learned: it saw feedback for every trial.
        assert policy.moves_adopted + policy.moves_reverted > 0

    def test_observation_fn_reaches_policy(self, simple_space):
        seen: list[np.ndarray] = []

        class Probe(GreedyOnlineTuner):
            def propose(self, observation):
                seen.append(observation)
                return super().propose(observation)

        policy = Probe(simple_space, seed=0)
        observation = np.arange(6, dtype=float)
        opt = OnlinePolicyOptimizer(
            simple_space, policy, objectives=Objective("lat"), observation_fn=lambda: observation
        )
        TuningSession(opt, lambda c: {"lat": 1.0}, max_trials=3).run()
        assert len(seen) == 3
        assert all(np.array_equal(o, observation) for o in seen)

    def test_failure_feeds_crash_reward(self, simple_space):
        rewards: list[float] = []

        class Probe(GreedyOnlineTuner):
            def feedback(self, observation, config, reward):
                rewards.append(reward)
                super().feedback(observation, config, reward)

        from repro.exceptions import SystemCrashError

        def crashy(config):
            if int(config["n"]) % 2 == 0:
                raise SystemCrashError("even n crashes")
            return {"lat": 1.0}

        policy = Probe(simple_space, seed=0)
        opt = OnlinePolicyOptimizer(simple_space, policy, objectives=Objective("lat"), seed=0)
        res = TuningSession(opt, crashy, max_trials=10).run()
        n_failed = len(res.history.failed())
        assert n_failed > 0
        assert rewards.count(-2.0) == n_failed  # flat crash penalty, agent parity

    def test_works_with_executor_and_telemetry(self, simple_space):
        # The whole point of symmetry: executors + telemetry against a policy.
        policy = GreedyOnlineTuner(simple_space, seed=0)
        opt = OnlinePolicyOptimizer(simple_space, policy, objectives=Objective("lat"), seed=0)
        callback = TelemetryCallback()
        with ThreadedExecutor(max_workers=2) as executor:
            res = TuningSession(
                opt, lambda c: {"lat": float(c["x"])}, max_trials=8, batch_size=2,
                callbacks=[callback], executor=executor,
            ).run()
        assert res.n_trials == 8
        assert len(callback.trace.trial_spans()) == 8


class TestOptimizerPolicy:
    def test_optimizer_as_online_policy(self, simple_space):
        inner = RandomSearchOptimizer(simple_space, Objective("reward_metric", minimize=True), seed=0)
        policy = OptimizerPolicy(inner)
        observation = np.zeros(6)
        config = policy.propose(observation)
        policy.feedback(observation, config, reward=1.5)
        assert len(inner.history) == 1
        trial = inner.history.trials[0]
        # Higher reward -> better (lower) minimize-metric via unscore(-reward).
        assert trial.metric("reward_metric") == pytest.approx(-1.5)
        assert trial.context["observation"] == [0.0] * 6

    def test_optimizer_policy_in_online_agent(self):
        from repro.online import OnlineTuningAgent
        from repro.sysim import QUIET_CLOUD, RedisServer, redis_benchmark_workload
        from repro.workloads import PhasedTrace

        server = RedisServer(env=QUIET_CLOUD(seed=0), seed=0)
        inner = RandomSearchOptimizer(server.space, Objective("reward", minimize=False), seed=0)
        agent = OnlineTuningAgent(
            server, OptimizerPolicy(inner), Objective("latency_p95"), duration_s=5.0
        )
        result = agent.run(PhasedTrace([(redis_benchmark_workload(), 5)]))
        assert len(result.records) == 5
        assert len(inner.history) == 5  # every step observed by the optimizer
