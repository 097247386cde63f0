"""Unit tests for the online tuning agent loop, the ``OnlinePolicy`` base and the guardrail."""

import json

import numpy as np
import pytest

from repro.core import Objective, TrialStatus, TuningSession
from repro.exceptions import OptimizerError, ReproError, SystemCrashError
from repro.execution import ThreadedExecutor
from repro.online import (
    REWARD,
    ContextualBayesianOptimizer,
    GeneticAlgorithmOptimizer,
    GreedyOnlineTuner,
    Guardrail,
    OnlinePolicy,
    OnlineTuningAgent,
    StaticConfigPolicy,
)
from repro.online.agent import CRASH_REWARD
from repro.optimizers import RandomSearchOptimizer
from repro.sysim import QUIET_CLOUD, RedisServer, SimulatedDBMS, redis_benchmark_workload
from repro.telemetry import TelemetryCallback
from repro.workloads import DiurnalTrace, PhasedTrace, tpcc, ycsb

from .data.make_online_goldens import GOLDEN_PATH, run_case


class RecordingPolicy(OnlinePolicy):
    """Plays a fixed config and records every callback."""

    def __init__(self, config):
        super().__init__(config.space)
        self.config = config
        self.rewards = []
        self.observations = []

    def propose(self, observation):
        self.observations.append(observation)
        return self.config, len(self.observations)

    def feedback(self, trial, memo, reward):
        self.rewards.append(reward)


@pytest.fixture
def agent_setup():
    db = SimulatedDBMS(env=QUIET_CLOUD(seed=0), seed=0)
    sub = db.space.subspace(["buffer_pool_mb", "worker_threads"])
    return db, sub


class TestAgentLoop:
    def test_runs_full_trace(self, agent_setup):
        db, sub = agent_setup
        policy = RecordingPolicy(sub.default_configuration())
        agent = OnlineTuningAgent(db, policy, Objective("throughput", minimize=False))
        trace = PhasedTrace([(ycsb("b"), 5), (tpcc(30), 5)])
        result = agent.run(trace)
        assert len(result.records) == 10
        assert len(policy.rewards) == 10

    def test_observation_reflects_workload(self, agent_setup):
        db, sub = agent_setup
        policy = RecordingPolicy(sub.default_configuration())
        agent = OnlineTuningAgent(db, policy, Objective("throughput", minimize=False))
        agent.run(PhasedTrace([(ycsb("c"), 2), (tpcc(30), 2)]))
        # read_fraction feature flips from 1.0 (ycsb-c) to ~0.56 (tpcc).
        assert policy.observations[0][1] == pytest.approx(1.0)
        assert policy.observations[3][1] < 0.8

    def test_first_reward_is_zero_baseline(self, agent_setup):
        db, sub = agent_setup
        policy = RecordingPolicy(sub.default_configuration())
        agent = OnlineTuningAgent(db, policy, Objective("throughput", minimize=False))
        agent.run(DiurnalTrace(ycsb("b"), length=4))
        assert policy.rewards[0] == 0.0

    def test_delta_rewards_track_improvement(self, agent_setup):
        db, sub = agent_setup

        class ImprovingPolicy(OnlinePolicy):
            def __init__(self):
                super().__init__(sub)
                self.step = 0
                self.rewards = []

            def propose(self, obs):
                self.step += 1
                bp = min(8192, 128 * self.step)
                return sub.make({"buffer_pool_mb": bp, "worker_threads": 8}), self.step

            def feedback(self, trial, memo, reward):
                self.rewards.append(reward)

        policy = ImprovingPolicy()
        agent = OnlineTuningAgent(db, policy, Objective("throughput", minimize=False))
        agent.run(DiurnalTrace(ycsb("b"), length=10, amplitude=0.0))
        # Strictly improving configs => mostly positive rewards after step 1.
        assert np.mean(np.array(policy.rewards[1:]) > 0) > 0.6

    def test_crash_penalised_and_rolled_back(self, agent_setup):
        db, sub = agent_setup
        crash_cfg = sub.make({"buffer_pool_mb": 16 * 1024, "worker_threads": 256},
                             check_constraints=False)

        class CrashingPolicy(RecordingPolicy):
            pass

        policy = CrashingPolicy(crash_cfg)
        agent = OnlineTuningAgent(db, policy, Objective("throughput", minimize=False))
        result = agent.run(DiurnalTrace(ycsb("b"), length=3))
        assert all(r.crashed for r in result.records)
        assert all(r == -2.0 for r in policy.rewards)


class TestGuardrail:
    def test_flags_regression(self):
        guard = Guardrail(tolerance=0.2, window=10, grace=3)
        for _ in range(5):
            verdict = guard.check(100.0)
        assert not verdict.violated
        verdict = guard.check(150.0)  # 50% worse than the 100 baseline
        assert verdict.violated
        assert guard.violations == 1

    def test_tolerance_band(self):
        guard = Guardrail(tolerance=0.5, window=10, grace=2)
        for _ in range(4):
            guard.check(100.0)
        assert not guard.check(140.0).violated  # inside the 50% band

    def test_grace_period(self):
        guard = Guardrail(tolerance=0.1, window=10, grace=5)
        assert not guard.check(1.0).violated
        assert not guard.check(100.0).violated  # still in grace

    def test_safe_point_detection(self):
        guard = Guardrail(tolerance=0.2, window=10, grace=2)
        for _ in range(4):
            guard.check(100.0)
        assert guard.check(90.0).is_safe_point

    def test_validation(self):
        with pytest.raises(OptimizerError):
            Guardrail(tolerance=-0.1)
        with pytest.raises(OptimizerError):
            Guardrail(window=1)

    def test_agent_rolls_back_on_violation(self, agent_setup):
        db, sub = agent_setup
        good = sub.make({"buffer_pool_mb": 4096, "worker_threads": 64})
        bad = sub.make({"buffer_pool_mb": 64, "worker_threads": 1})

        class DegradingPolicy(OnlinePolicy):
            def __init__(self):
                super().__init__(sub)
                self.step = 0

            def propose(self, obs):
                self.step += 1
                return (good if self.step < 10 else bad), self.step

            def feedback(self, trial, memo, reward):
                pass

        agent = OnlineTuningAgent(
            db,
            DegradingPolicy(),
            Objective("throughput", minimize=False),
            guardrail=Guardrail(tolerance=0.2, window=8, grace=3),
        )
        result = agent.run(DiurnalTrace(ycsb("b"), length=14, amplitude=0.0))
        assert any(r.rolled_back for r in result.records[9:])


class TestOnlineResult:
    def test_regression_steps(self, agent_setup):
        db, sub = agent_setup
        policy = StaticConfigPolicy(sub.default_configuration())
        agent = OnlineTuningAgent(db, policy, Objective("throughput", minimize=False))
        result = agent.run(DiurnalTrace(ycsb("b"), length=5, amplitude=0.0))
        base = result.values()
        assert result.regression_steps(base, tolerance=0.1, minimize=False) == 0


# -- the OnlinePolicy base, driven by a plain session --------------------------


class TestOnlinePolicyBase:
    def test_policy_drives_a_session(self, simple_space):
        policy = GreedyOnlineTuner(simple_space, seed=0)
        res = TuningSession(policy, lambda c: {"reward": -float(c["x"])}, max_trials=12).run()
        assert res.n_trials == 12 and len(policy.history) == 12
        # The policy learned from every tell: one incumbent measurement, then a verdict per move.
        assert policy.moves_adopted + policy.moves_reverted == 11

    def test_observation_reaches_the_technique(self, simple_space):
        policy = RecordingPolicy(simple_space.default_configuration())
        policy.suggest()
        assert np.array_equal(policy.observations[0], np.zeros(6))  # no agent: zeros
        observation = np.arange(6, dtype=float)
        policy.observation_fn = lambda: observation
        TuningSession(policy, lambda c: {"reward": 1.0}, max_trials=3).run()
        assert len(policy.observations) == 4
        assert all(np.array_equal(o, observation) for o in policy.observations[1:])

    def test_crash_yields_the_crash_reward(self, simple_space):
        calls = []

        def crash_every_other(config):
            calls.append(config)
            if len(calls) % 2 == 0:
                raise SystemCrashError("every other step crashes")
            return {"reward": 1.0}

        policy = RecordingPolicy(simple_space.default_configuration())
        res = TuningSession(policy, crash_every_other, max_trials=6).run()
        assert len(res.history.failed()) == 3
        assert policy.rewards == [1.0, CRASH_REWARD] * 3

    def test_foreign_trial_teaches_nothing(self, simple_space):
        policy = RecordingPolicy(simple_space.default_configuration())
        policy.observe(simple_space.default_configuration(), {"reward": 5.0})
        assert len(policy.history) == 1 and policy.rewards == []

    def test_works_with_executor_and_telemetry(self, simple_space):
        policy = GreedyOnlineTuner(simple_space, seed=0)
        callback = TelemetryCallback()
        with ThreadedExecutor(max_workers=2) as executor:
            res = TuningSession(
                policy, lambda c: {"reward": -float(c["x"])}, max_trials=8, batch_size=2,
                callbacks=[callback], executor=executor,
            ).run()
        assert res.n_trials == 8
        roots = callback.trace.trial_spans()
        assert len(roots) == 8 and all("reward" in root.attributes for root in roots)

    def test_offline_optimizer_as_the_agents_policy(self):
        server = RedisServer(env=QUIET_CLOUD(seed=0), seed=0)
        optimizer = RandomSearchOptimizer(server.space, REWARD, seed=0)
        agent = OnlineTuningAgent(server, optimizer, Objective("latency_p95"), duration_s=5.0)
        result = agent.run(PhasedTrace([(redis_benchmark_workload(), 5)]))
        assert len(result.records) == 5
        assert len(optimizer.history) == 5  # every step told to the optimizer itself
        assert [r.reward for r in result.records] == [t.metric("reward") for t in optimizer.history]

    def test_agent_refuses_a_used_technique(self, agent_setup):
        db, sub = agent_setup
        policy = StaticConfigPolicy(sub.default_configuration())
        agent = OnlineTuningAgent(db, policy, Objective("throughput", minimize=False))
        agent.run(DiurnalTrace(ycsb("b"), length=2))
        with pytest.raises(ReproError):
            agent.run(DiurnalTrace(ycsb("b"), length=2))


@pytest.mark.parametrize("technique", ["policy", "genetic", "contextual-bo"])
def test_a_crash_reaches_each_technique_its_own_way(agent_setup, technique):
    """Under the agent, a crashed step reaches a policy as ``CRASH_REWARD`` and a
    ``REWARD``-objective optimizer as a failed trial, which keeps its observation."""
    db, sub = agent_setup
    run, calls = db.run, []

    def crash_twice(workload, duration_s, config):
        calls.append(config)
        if len(calls) <= 2:
            raise SystemCrashError("injected crash")
        return run(workload, duration_s=duration_s, config=config)

    db.run = crash_twice
    make = {
        "policy": lambda: RecordingPolicy(sub.default_configuration()),
        "genetic": lambda: GeneticAlgorithmOptimizer(sub, population_size=4, objectives=REWARD, seed=0),
        "contextual-bo": lambda: ContextualBayesianOptimizer(sub, n_init=2, n_candidates=16, seed=0),
    }[technique]()
    trace = DiurnalTrace(ycsb("b"), length=4)
    result = OnlineTuningAgent(db, make, Objective("throughput", minimize=False)).run(trace)
    assert [(r.crashed, r.reward == CRASH_REWARD) for r in result.records] == [(True, True)] * 2 + [(False, False)] * 2
    assert [t.status for t in make.history] == [TrialStatus.FAILED] * 2 + [TrialStatus.SUCCEEDED] * 2
    if technique == "policy":
        assert make.rewards[:2] == [CRASH_REWARD] * 2
    if technique == "contextual-bo":
        # Each step's trial holds the observation the agent built for it (its read fraction, say).
        assert [t.context["observation"][1] for t in make.history] == [trace.at(k).read_fraction for k in range(4)]


# -- recorded step sequences ---------------------------------------------------

GOLDENS = json.loads(GOLDEN_PATH.read_text())


def test_goldens_cover_crashes_and_rollbacks():
    assert len(GOLDENS) == 12 and all(len(rows) == 40 for rows in GOLDENS.values())
    assert any(row[-2] for rows in GOLDENS.values() for row in rows)  # a crash
    assert any(row[-1] for rows in GOLDENS.values() for row in rows)  # a rollback


@pytest.mark.parametrize("case", sorted(GOLDENS))
def test_agent_reproduces_recorded_steps(case):
    """Exact (config, value, reward, crashed, rolled_back) per step, recorded
    before the agent's loop became a TuningSession."""
    policy, guardrail = case.split("/guardrail-")
    assert run_case(policy, guardrail == "on") == GOLDENS[case]
