"""Integration tests: full tuning pipelines across modules."""

import numpy as np
import pytest

from repro.analysis import LassoImportance
from repro.benchmarking import BenchmarkRunner, TunaRunner
from repro.core import Objective, TuningSession
from repro.knowledge import ManualKnowledgeExtractor
from repro.online import (
    Guardrail,
    HybridBanditTuner,
    OnlineTuningAgent,
    StaticConfigPolicy,
)
from repro.optimizers import (
    BayesianOptimizer,
    PriorBank,
    PriorRun,
    ProjectedOptimizer,
    RandomSearchOptimizer,
    SMACOptimizer,
    warm_start_from_history,
)
from repro.space.adapters import LlamaTuneAdapter
from repro.sysim import QUIET_CLOUD, CloudEnvironment, RedisServer, SimulatedDBMS, redis_benchmark_workload
from repro.workload_id import WorkloadEmbedder
from repro.workloads import PhasedTrace, tpcc, ycsb

from .conftest import assert_healthy

TPUT = Objective("throughput", minimize=False)
P95 = Objective("latency_p95", minimize=True)


class TestOfflinePipeline:
    def test_redis_running_example_end_to_end(self):
        """The tutorial's running example: tune the kernel knob with BO."""
        server = RedisServer(env=QUIET_CLOUD(seed=1), seed=1)
        space = server.space.subspace(["sched_migration_cost_ns"])
        opt = BayesianOptimizer(space, n_init=5, objectives=P95, seed=0, n_candidates=128)
        res = TuningSession(opt, server.evaluator(redis_benchmark_workload(), "latency_p95"),
                            max_trials=25).run()
        assert_healthy(opt)
        default_p95 = server.run(
            redis_benchmark_workload(), config=server.space.default_configuration()
        ).latency_p95
        assert res.best_value < default_p95 * 0.5

    def test_dbms_tuning_with_runner_and_importance(self):
        """Tune the DBMS, then verify Lasso recovers the important knobs
        from the very history the tuner produced."""
        db = SimulatedDBMS(env=QUIET_CLOUD(seed=2), seed=2)
        runner = BenchmarkRunner(db, tpcc(100), TPUT)
        opt = RandomSearchOptimizer(db.space, TPUT, seed=0)
        TuningSession(opt, runner, max_trials=60).run()
        ranking = LassoImportance(db.space).rank(opt.history)
        top6 = set(ranking.top(6))
        assert len(top6 & set(db.IMPORTANT_KNOBS)) >= 2

    def test_manual_discovery_then_bo(self):
        """GPTuner pipeline: manual extraction -> informed space -> BO."""
        db = SimulatedDBMS(env=QUIET_CLOUD(seed=3), seed=3)
        informed = ManualKnowledgeExtractor().informed_space(db.space, k=5)
        opt = BayesianOptimizer(informed, n_init=6, objectives=TPUT, seed=0, n_candidates=128)
        res = TuningSession(opt, db.evaluator(tpcc(100), "throughput"), max_trials=25).run()
        assert_healthy(opt)
        default = db.run(tpcc(100), config=db.space.default_configuration()).throughput
        assert res.best_value > default * 2

    def test_llamatune_pipeline_on_dbms(self):
        db = SimulatedDBMS(env=QUIET_CLOUD(seed=4), seed=4)
        adapter = LlamaTuneAdapter(db.space, d=8, seed=1)
        opt = ProjectedOptimizer(
            adapter,
            lambda s: BayesianOptimizer(s, n_init=8, objectives=TPUT, seed=0, n_candidates=128),
            objectives=TPUT,
            seed=0,
        )
        res = TuningSession(opt, db.evaluator(tpcc(100), "throughput"), max_trials=30).run()
        default = db.run(tpcc(100), config=db.space.default_configuration()).throughput
        assert res.best_value > default

    def test_transfer_via_workload_similarity(self):
        """PriorBank + embeddings: tune on YCSB-A, warm start YCSB-A-like."""
        db = SimulatedDBMS(env=QUIET_CLOUD(seed=5), seed=5)
        src_opt = SMACOptimizer(db.space, n_init=8, objectives=TPUT, seed=0, n_candidates=128)
        TuningSession(src_opt, db.evaluator(ycsb("a"), "throughput"), max_trials=30).run()
        assert_healthy(src_opt)
        bank = PriorBank()
        bank.add(PriorRun(ycsb("a"), src_opt.history.trials))
        dst_opt = SMACOptimizer(db.space, n_init=8, objectives=TPUT, seed=1, n_candidates=128)
        rng = np.random.default_rng(7)
        similar = ycsb("a").perturbed(rng, 0.03)
        n = bank.warm_start(dst_opt, similar, k=1)
        assert n > 0
        # The transferred incumbent already beats the default.
        default = db.run(similar, config=db.space.default_configuration()).throughput
        assert dst_opt.history.best_value() > default


class TestNoisePipeline:
    def test_tuna_in_a_session(self):
        env = CloudEnvironment(seed=6, transient_noise=0.1, outlier_fraction=0.2)
        db = SimulatedDBMS(env=env, seed=6)
        tuna = TunaRunner(db, tpcc(50), TPUT, env.allocate_pool(5), seed=0)
        opt = RandomSearchOptimizer(db.space, TPUT, seed=0)
        res = TuningSession(opt, tuna, max_trials=15).run()
        assert res.n_trials == 15
        assert res.best_value > 0


class TestOnlinePipeline:
    def test_online_agent_with_workload_shift_and_guardrail(self):
        db = SimulatedDBMS(env=CloudEnvironment(seed=7, transient_noise=0.03), seed=7)
        sub = db.space.subspace(
            ["buffer_pool_mb", "worker_threads", "work_mem_mb", "flush_method"]
        )
        trace = PhasedTrace([(ycsb("b"), 40), (tpcc(80), 40)])
        agent = OnlineTuningAgent(
            db, HybridBanditTuner(sub, seed=0), TPUT, guardrail=Guardrail(tolerance=0.3)
        )
        adaptive = agent.run(trace)

        db2 = SimulatedDBMS(env=CloudEnvironment(seed=7, transient_noise=0.03), seed=7)
        static_agent = OnlineTuningAgent(
            db2, StaticConfigPolicy(sub.default_configuration()), TPUT
        )
        static = static_agent.run(trace)
        assert adaptive.values().mean() > static.values().mean()

    def test_offline_warm_start_for_online(self):
        """The 'use both' strategy: offline tunes defaults, online refines."""
        db = SimulatedDBMS(env=QUIET_CLOUD(seed=8), seed=8)
        sub = db.space.subspace(["buffer_pool_mb", "worker_threads"])
        offline = BayesianOptimizer(sub, n_init=6, objectives=TPUT, seed=0, n_candidates=128)
        TuningSession(offline, db.evaluator(ycsb("b"), "throughput"), max_trials=20).run()
        assert_healthy(offline)
        best = offline.best_config()
        trace = PhasedTrace([(ycsb("b"), 10)])
        warm_agent = OnlineTuningAgent(db, StaticConfigPolicy(best), TPUT)
        cold_agent = OnlineTuningAgent(db, StaticConfigPolicy(sub.default_configuration()), TPUT)
        warm = warm_agent.run(trace)
        cold = cold_agent.run(trace)
        assert warm.values().mean() > cold.values().mean() * 1.5


class TestWorkloadIdPipeline:
    def test_embedding_based_config_reuse(self):
        """Slide 92's application: identify similar workload, reuse config."""
        corpus = [ycsb("a"), ycsb("b"), tpcc(100)]
        embedder = WorkloadEmbedder(n_components=3, seed=0, n_steps=64)
        embedder.fit(corpus)
        rng = np.random.default_rng(0)
        mystery = ycsb("b").perturbed(rng, 0.02)
        z = embedder.embed(mystery)
        dists = [np.linalg.norm(z - embedder.embed(w)) for w in corpus]
        assert int(np.argmin(dists)) == 1  # matched to ycsb-b
