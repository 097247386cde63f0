"""E5 — surrogate families: GP vs SMAC-RF vs CMA-ES vs PSO vs annealing
(slide 50, "Other Models for Black-Box Optimization").

Full 21-knob DBMS tuning under a fixed trial budget. Shape: the two
model-based optimizers (GP-BO, SMAC) are the most sample-efficient;
evolutionary methods need more evaluations per unit of progress; everything
beats random.
"""

import numpy as np

from repro.analysis import compare_optimizers
from repro.optimizers import (
    BayesianOptimizer,
    CMAESOptimizer,
    ParticleSwarmOptimizer,
    RandomSearchOptimizer,
    SimulatedAnnealingOptimizer,
    SMACOptimizer,
)
from repro.sysim import CloudEnvironment, SimulatedDBMS
from repro.workloads import tpcc

from benchmarks.conftest import THROUGHPUT

BUDGET = 40
N_SEEDS = 2
WORKLOAD = tpcc(100)


def _db(seed):
    return SimulatedDBMS(env=CloudEnvironment(seed=seed, transient_noise=0.02), seed=seed)


def _fresh_evaluator(seed):
    return _db(seed).evaluator(WORKLOAD, "throughput")


def _space(seed):
    return _db(seed).space


def test_e05_surrogate_families(table):
    def experiment():
        return compare_optimizers(
            {
                "random": lambda s: RandomSearchOptimizer(_space(s), THROUGHPUT, seed=s),
                "annealing": lambda s: SimulatedAnnealingOptimizer(_space(s), objectives=THROUGHPUT, seed=s),
                "gp-bo": lambda s: BayesianOptimizer(_space(s), n_init=10, objectives=THROUGHPUT, seed=s, n_candidates=160),
                "smac-rf": lambda s: SMACOptimizer(_space(s), n_init=10, objectives=THROUGHPUT, seed=s, n_candidates=160),
                "cma-es": lambda s: CMAESOptimizer(_space(s), objectives=THROUGHPUT, seed=s),
                "pso": lambda s: ParticleSwarmOptimizer(_space(s), n_particles=10, objectives=THROUGHPUT, seed=s),
            },
            _fresh_evaluator,
            max_trials=BUDGET,
            n_seeds=N_SEEDS,
        )

    results = experiment()
    default_tput = _db(0).run(WORKLOAD, config=_db(0).space.default_configuration()).throughput
    rows = [
        (name, comp.mean_best(), comp.mean_best() / default_tput)
        for name, comp in results.items()
    ]
    table(
        f"E5 (slide 50) — surrogate families on {WORKLOAD.name}, budget={BUDGET}",
        ["optimizer", "mean best throughput", "x over default"],
        rows,
    )
    best = {name: comp.mean_best() for name, comp in results.items()}
    # Shape: model-based methods beat random on this budget.
    assert best["gp-bo"] > best["random"]
    assert best["smac-rf"] > best["random"]
    # Everything improves on the default config.
    assert all(v > default_tput for v in best.values()), best
