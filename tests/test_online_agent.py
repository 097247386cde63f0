"""Unit tests for the online tuning agent loop and guardrail."""

import json

import numpy as np
import pytest

from repro.core import Objective
from repro.exceptions import OptimizerError
from repro.online import (
    Guardrail,
    OnlineTuningAgent,
    StaticConfigPolicy,
)
from repro.online.agent import OnlinePolicy
from repro.sysim import QUIET_CLOUD, SimulatedDBMS
from repro.workloads import DiurnalTrace, PhasedTrace, tpcc, ycsb

from .data.make_online_goldens import GOLDEN_PATH, run_case


class RecordingPolicy(OnlinePolicy):
    """Plays a fixed config and records every callback."""

    def __init__(self, config):
        self.config = config
        self.rewards = []
        self.observations = []

    def propose(self, observation):
        self.observations.append(observation)
        return self.config

    def feedback(self, observation, config, reward):
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
                self.step = 0
                self.rewards = []

            def propose(self, obs):
                self.step += 1
                bp = min(8192, 128 * self.step)
                return sub.make({"buffer_pool_mb": bp, "worker_threads": 8})

            def feedback(self, obs, config, reward):
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
                self.step = 0

            def propose(self, obs):
                self.step += 1
                return good if self.step < 10 else bad

            def feedback(self, obs, config, reward):
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
