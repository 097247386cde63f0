"""E4 — acquisition functions: PI vs EI vs LCB, β sweep (slides 47–48).

Runs BO on the Redis kernel knob with each acquisition and several LCB β
values. Shape: EI is competitive-or-better than PI (it weighs the
*magnitude* of improvement); β controls the explore/exploit balance, with
extreme β values paying a price on a fixed budget.
"""

import numpy as np

from repro.analysis import compare_optimizers
from repro.optimizers import (
    BayesianOptimizer,
    ExpectedImprovement,
    LowerConfidenceBound,
    ProbabilityOfImprovement,
)
from repro.sysim import CloudEnvironment, RedisServer, redis_benchmark_workload

from benchmarks.conftest import P95

BUDGET = 22
N_SEEDS = 3


def _space(seed):
    return RedisServer(env=CloudEnvironment(seed=seed), seed=seed).space.subspace(
        ["sched_migration_cost_ns", "io_threads"]
    )


def _fresh_evaluator(seed):
    server = RedisServer(env=CloudEnvironment(seed=seed, transient_noise=0.02), seed=seed)
    return server.evaluator(redis_benchmark_workload(), "latency_p95")


def _bo(space, acquisition, seed):
    return BayesianOptimizer(
        space, n_init=6, acquisition=acquisition, objectives=P95, seed=seed, n_candidates=128
    )


def test_e04_acquisition_comparison(table):
    def experiment():
        return compare_optimizers(
            {
                "PI(xi=0.01)": lambda s: _bo(_space(s), ProbabilityOfImprovement(0.01), s),
                "EI(xi=0.01)": lambda s: _bo(_space(s), ExpectedImprovement(0.01), s),
                "LCB(beta=0)": lambda s: _bo(_space(s), LowerConfidenceBound(0.0), s),
                "LCB(beta=2)": lambda s: _bo(_space(s), LowerConfidenceBound(2.0), s),
                "LCB(beta=16)": lambda s: _bo(_space(s), LowerConfidenceBound(16.0), s),
            },
            _fresh_evaluator,
            max_trials=BUDGET,
            n_seeds=N_SEEDS,
        )

    results = experiment()
    rows = [
        (name, comp.mean_best(), comp.mean_trials_to(0.45))
        for name, comp in results.items()
    ]
    table(
        f"E4 (slides 47-48) — acquisition functions, budget={BUDGET}",
        ["acquisition", "mean best P95 (ms)", "mean trials to 0.45 ms"],
        rows,
    )
    best = {name: comp.mean_best() for name, comp in results.items()}
    # Shape: all model-guided settings land in the valley...
    assert all(v < 1.0 for v in best.values()), best
    # ...EI is not worse than PI by a meaningful margin...
    assert best["EI(xi=0.01)"] <= best["PI(xi=0.01)"] + 0.05
    # ...and a moderate beta is at least as good as the wild-explorer beta.
    assert best["LCB(beta=2)"] <= best["LCB(beta=16)"] + 0.05
