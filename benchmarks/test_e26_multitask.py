"""E26 — multi-task optimization (slide 59).

"Can we reuse the data collected while optimizing f₁(x) when optimizing
f₂(x)? Yes! Idea: exploit the correlations between f₁ … f_k."

Two tasks: the simulated DBMS's throughput under YCSB-A and under YCSB-B,
two read/update mixes over the same data, so their good regions overlap.
The joint arm is one :class:`MultiTaskOptimizer` campaign whose every trial
measures both workloads; the baseline is two independent
:class:`BayesianOptimizer` campaigns, one per workload, at the same trial
budget — both arms make the same number of measurements. Shape: the joint
campaign stays competitive on both tasks, although each of its suggestions
aims at one task only — the other task's measurement is what the shared,
coregionalised GP learns from.

The claim is a paired comparison over :data:`POWERED_SEEDS`: per task, the
mean of the per-seed ratio joint / independent best throughput, with its
bootstrap interval. One seed's ratio lies anywhere between about 0.5 and 1.9.
"""

import numpy as np

from repro.core import Objective, TuningSession
from repro.optimizers import BayesianOptimizer, MultiTaskOptimizer
from repro.sysim import CloudEnvironment, SimulatedDBMS
from repro.workloads import ycsb

from benchmarks.conftest import POWERED_SEEDS, THROUGHPUT, paired_ratio_interval

MIXES = ("a", "b")
BUDGET = 30  # trials per campaign: the joint arm measures 2 × 30, the two independent arms 30 + 30
N_INIT = 10
N_CANDIDATES = 128
OBJECTIVES = [Objective(f"throughput_{mix}", minimize=False) for mix in MIXES]


def _dbs(seed):
    """One simulated DBMS per workload, each with its own noise stream."""
    return [
        SimulatedDBMS(env=CloudEnvironment(seed=seed + 100 * i, transient_noise=0.02), seed=seed + 100 * i)
        for i in range(len(MIXES))
    ]


def _joint(seed):
    dbs = _dbs(seed)
    opt = MultiTaskOptimizer(dbs[0].space, OBJECTIVES, n_init=N_INIT, n_candidates=N_CANDIDATES, seed=seed)

    def measure(config):
        runs = [db.run(ycsb(mix), config=config) for db, mix in zip(dbs, MIXES)]
        return {obj.name: m.throughput for obj, m in zip(OBJECTIVES, runs)}, sum(m.elapsed_s for m in runs)

    TuningSession(opt, measure, max_trials=BUDGET).run()
    return [opt.best_for(t).metric(obj.name) for t, obj in enumerate(OBJECTIVES)]


def _independent(seed):
    best = []
    for db, mix in zip(_dbs(seed), MIXES):
        opt = BayesianOptimizer(db.space, n_init=N_INIT, objectives=THROUGHPUT, seed=seed, n_candidates=N_CANDIDATES)
        best.append(TuningSession(opt, db.evaluator(ycsb(mix), "throughput"), max_trials=BUDGET).run().best_value)
    return best


def test_e26_multitask(table):
    joint = np.array([_joint(seed) for seed in POWERED_SEEDS])
    independent = np.array([_independent(seed) for seed in POWERED_SEEDS])
    powered = {mix: paired_ratio_interval(joint[:, i], independent[:, i]) for i, mix in enumerate(MIXES)}
    table(
        f"E26 (slide 59) — one multi-task campaign vs one BO campaign per workload, {BUDGET} trials each",
        ["workload", "joint best tput", "independent best tput"],
        [(f"ycsb-{mix}", joint[:, i].mean(), independent[:, i].mean()) for i, mix in enumerate(MIXES)],
    )
    table(
        f"E26 — joint / independent best, paired over {len(POWERED_SEEDS)} seeds",
        ["workload", "mean ratio", "90% interval low", "90% interval high"],
        [(f"ycsb-{mix}", *interval) for mix, interval in powered.items()],
    )
    # Shape: at the same number of measurements, the mean joint / dedicated
    # best-throughput ratio is at least 0.85 on each workload.
    for mix, (_, low, _) in powered.items():
        assert low >= 0.85, f"ycsb-{mix}"
