"""E1 — "Why Tune? Performance!" (slide 10).

Paper claims:
* "Properly tuned database systems can achieve 4-10x higher throughput"
  (Van Aken, VLDB 2021);
* "68% reduction in P95 latency for Redis — tuning kernel scheduler
  parameters."

We reproduce both: BO-tune the simulated DBMS on TPC-C and the simulated
Redis kernel knob, and compare against the shipped defaults.
"""

import pytest

from repro.core import Objective, TuningSession
from repro.optimizers import BayesianOptimizer
from repro.sysim import QUIET_CLOUD, RedisServer, SimulatedDBMS, redis_benchmark_workload
from repro.workloads import tpcc, ycsb

from benchmarks.conftest import P95, THROUGHPUT


def _tune_dbms(workload, seed):
    db = SimulatedDBMS(env=QUIET_CLOUD(seed=seed), seed=seed)
    default = db.run(workload, config=db.space.default_configuration()).throughput
    opt = BayesianOptimizer(db.space, n_init=10, objectives=THROUGHPUT, seed=seed, n_candidates=192)
    res = TuningSession(opt, db.evaluator(workload, "throughput"), max_trials=50).run()
    return default, res.best_value


def _tune_redis(seed):
    server = RedisServer(env=QUIET_CLOUD(seed=seed), seed=seed)
    w = redis_benchmark_workload()
    default = server.run(w, config=server.space.default_configuration()).latency_p95
    space = server.space.subspace(["sched_migration_cost_ns"])
    opt = BayesianOptimizer(space, n_init=5, objectives=P95, seed=seed, n_candidates=128)
    res = TuningSession(opt, server.evaluator(w, "latency_p95"), max_trials=30).run()
    return default, res.best_value


def test_e01_tuned_vs_default(table):
    def experiment():
        rows = []
        for workload in (tpcc(100), ycsb("a")):
            default, tuned = _tune_dbms(workload, seed=1)
            rows.append((f"DBMS {workload.name} throughput", default, tuned, tuned / default))
        d_p95, t_p95 = _tune_redis(seed=2)
        rows.append(("Redis kernel-knob P95 (ms)", d_p95, t_p95, 1.0 - t_p95 / d_p95))
        return rows

    rows = experiment()
    table(
        "E1 (slide 10) — why tune: default vs tuned",
        ["system/metric", "default", "tuned", "ratio (or P95 cut)"],
        rows,
    )
    # Paper shape: 4-10x DBMS throughput; ~68 % Redis P95 reduction.
    dbms_ratios = [r[3] for r in rows[:2]]
    assert all(3.0 <= ratio <= 12.0 for ratio in dbms_ratios), dbms_ratios
    redis_cut = rows[2][3]
    assert 0.5 <= redis_cut <= 0.8, redis_cut
