"""E6 — discrete/hybrid optimization (slide 51).

``innodb_flush_method``-style categorical knobs: compare (a) ordinal
encoding into a GP (imposed order), (b) one-hot encoding into a GP,
(c) a random-forest surrogate (splits on categories natively), and
(d) a multi-armed bandit over a finite arm set. Shape: the approaches
that do not impose a fake order (one-hot GP / RF / bandit) match or beat
the ordinal GP on a space dominated by categorical choices.
"""

import numpy as np
import pytest

from repro.analysis import compare_optimizers
from repro.core import Objective
from repro.optimizers import (
    BayesianOptimizer,
    MultiArmedBanditOptimizer,
    RandomSearchOptimizer,
    SMACOptimizer,
)
from repro.sysim import CloudEnvironment, SimulatedDBMS
from repro.workloads import ycsb

from benchmarks.conftest import THROUGHPUT

BUDGET = 30
N_SEEDS = 3
WORKLOAD = ycsb("a")  # write heavy: flush method matters a lot
KNOBS = ["flush_method", "log_level", "compression", "buffer_pool_mb"]


def _db(seed):
    return SimulatedDBMS(env=CloudEnvironment(seed=seed, transient_noise=0.02), seed=seed)


def _space(seed):
    return _db(seed).space.subspace(KNOBS)


def _fresh_evaluator(seed):
    return _db(seed).evaluator(WORKLOAD, "throughput")


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="red since 90f9369 (vectorised SMAC forest): max(gp-onehot, smac-rf) 17706 < 0.95 x gp-ordinal 19232")
def test_e06_discrete_hybrid(table):
    def experiment():
        return compare_optimizers(
            {
                "gp-ordinal": lambda s: BayesianOptimizer(
                    _space(s), n_init=8, encoding="ordinal", objectives=THROUGHPUT, seed=s, n_candidates=128
                ),
                "gp-onehot": lambda s: BayesianOptimizer(
                    _space(s), n_init=8, encoding="onehot", objectives=THROUGHPUT, seed=s, n_candidates=128
                ),
                "smac-rf": lambda s: SMACOptimizer(
                    _space(s), n_init=8, objectives=THROUGHPUT, seed=s, n_candidates=128
                ),
                "bandit-ucb": lambda s: MultiArmedBanditOptimizer(
                    _space(s), n_arms=24, policy="ucb1", objectives=THROUGHPUT, seed=s
                ),
                "random": lambda s: RandomSearchOptimizer(_space(s), THROUGHPUT, seed=s),
            },
            _fresh_evaluator,
            max_trials=BUDGET,
            n_seeds=N_SEEDS,
        )

    results = experiment()
    rows = []
    for name, comp in results.items():
        # How often did the method's final best use the truly fastest flush
        # method family (direct IO, no fsync)?
        good_flush = np.mean(
            [r.best_config["flush_method"] in ("O_DIRECT_NO_FSYNC", "nosync") for r in comp.results]
        )
        rows.append((name, comp.mean_best(), f"{good_flush:.0%}"))
    table(
        f"E6 (slide 51) — categorical knob handling on {WORKLOAD.name}, budget={BUDGET}",
        ["method", "mean best throughput", "found fastest flush"],
        rows,
    )
    best = {name: comp.mean_best() for name, comp in results.items()}
    # Shape: native/categorical-aware handling >= imposed-order handling.
    assert max(best["gp-onehot"], best["smac-rf"]) >= best["gp-ordinal"] * 0.95
    # All model-guided methods beat random here.
    assert best["smac-rf"] > best["random"] * 0.9
