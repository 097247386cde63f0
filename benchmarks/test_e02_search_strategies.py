"""E2 — grid vs random vs Bayesian search (slides 29–31).

The running example: minimize Redis tail latency over
``sched_migration_cost_ns`` with a fixed trial budget. The slides' lesson:
with the same budget, model-guided search finds a deeper point in the
valley than evenly spaced or random probes, because it reuses information
from previous trials ("sample efficiency").
"""

import numpy as np

from repro.analysis import compare_optimizers
from repro.core import TuningSession
from repro.optimizers import BayesianOptimizer, GridSearchOptimizer, RandomSearchOptimizer
from repro.sysim import CloudEnvironment, RedisServer, redis_benchmark_workload

from benchmarks.conftest import P95

BUDGET = 20
N_SEEDS = 3


def _fresh_evaluator(seed):
    server = RedisServer(env=CloudEnvironment(seed=seed, transient_noise=0.02), seed=seed)
    return server.evaluator(redis_benchmark_workload(), "latency_p95")


def _space(seed):
    return RedisServer(env=CloudEnvironment(seed=seed), seed=seed).space.subspace(
        ["sched_migration_cost_ns"]
    )


def test_e02_search_strategy_comparison(table):
    def experiment():
        return compare_optimizers(
            {
                "grid": lambda s: GridSearchOptimizer(_space(s), points_per_dim=BUDGET, objectives=P95, seed=s),
                "random": lambda s: RandomSearchOptimizer(_space(s), P95, seed=s),
                "bayesopt": lambda s: BayesianOptimizer(_space(s), n_init=5, objectives=P95, seed=s, n_candidates=128),
            },
            _fresh_evaluator,
            max_trials=BUDGET,
            n_seeds=N_SEEDS,
        )

    results = experiment()
    target = 0.50  # deep in the valley (default is ~1.9 p95)
    rows = [
        (
            name,
            comp.mean_best(),
            comp.mean_trials_to(target),
            f"{comp.reach_rate(target):.0%}",
        )
        for name, comp in results.items()
    ]
    table(
        f"E2 (slides 29-31) — search strategies, budget={BUDGET} trials",
        ["strategy", "mean best P95 (ms)", f"mean trials to {target}ms", "reach rate"],
        rows,
    )
    # Shape: BO's mean best is at least as good as grid's and random's.
    best = {name: comp.mean_best() for name, comp in results.items()}
    assert best["bayesopt"] <= best["grid"] + 0.02
    assert best["bayesopt"] <= best["random"] + 0.02
    # And every strategy beats the ~1.9 ms default comfortably.
    assert all(v < 1.0 for v in best.values())
