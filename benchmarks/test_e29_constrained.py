"""E29 — constrained BO with a black-box constraint (slide 60).

"SCBO: Eriksson & Poloczek (2021), Scalable constrained Bayesian
optimization — supports black-box constraints!" Tune the simulated DBMS for
YCSB-B throughput under a memory budget the system does not enforce: a
configuration whose estimated peak memory exceeds :data:`MEMORY_BUDGET_MB`
runs, but is not deployable. Throughput wants a large buffer pool and many
workers with work memory, so the optimum sits on the budget's edge.

:class:`ConstrainedBayesianOptimizer` receives the overrun as a constraint
metric (feasible iff ≤ 0), models it with its own GP and weights EI by the
probability of feasibility. The baseline is :class:`BayesianOptimizer` that
receives each violation as a failed trial, so it only learns "this crashed"
at an imputed penalty score. Both arms have the same budget and seeds.

The claim is a paired comparison over :data:`POWERED_SEEDS` at a reduced
budget (:data:`BUDGET` trials, :data:`N_CANDIDATES` candidates): the mean of
the per-seed ratio of best *feasible* throughput, constrained / penalised,
with its bootstrap interval.
"""

import numpy as np

from repro.core import TuningSession
from repro.exceptions import SystemCrashError
from repro.optimizers import BayesianOptimizer, ConstrainedBayesianOptimizer
from repro.sysim import CloudEnvironment, SimulatedDBMS
from repro.workloads import ycsb

from benchmarks.conftest import POWERED_SEEDS, THROUGHPUT, paired_ratio_interval

KNOBS = ["buffer_pool_mb", "worker_threads", "work_mem_mb", "wal_buffer_mb", "temp_buffers_mb", "io_concurrency"]
WORKLOAD = ycsb("b")
MEMORY_BUDGET_MB = 2048.0  # the working set alone is 2 GB
BUDGET = 25
N_INIT = 8
N_CANDIDATES = 128


def _measure(db):
    """Evaluator reporting throughput and the memory overrun (MB above the budget)."""

    def evaluate(config):
        m = db.run(WORKLOAD, config=config)
        overrun = db.memory_demand_mb(config, WORKLOAD) - MEMORY_BUDGET_MB
        return {"throughput": m.throughput, "mem_overrun_mb": overrun}, m.elapsed_s

    return evaluate


def _best_feasible(cls, seed):
    """Best throughput among the campaign's trials within the memory budget."""
    db = SimulatedDBMS(env=CloudEnvironment(seed=seed), seed=seed)
    space = db.space.subspace(KNOBS)
    measure = _measure(db)
    options = {"n_init": N_INIT, "n_candidates": N_CANDIDATES, "objectives": THROUGHPUT, "seed": seed}
    if cls is ConstrainedBayesianOptimizer:
        opt = cls(space, ["mem_overrun_mb"], **options)
        evaluator = measure
    else:
        opt = cls(space, **options)

        def evaluator(config):  # a violation is a failed trial
            metrics, cost = measure(config)
            if metrics["mem_overrun_mb"] > 0:
                raise SystemCrashError("over the memory budget")
            return metrics, cost

    TuningSession(opt, evaluator, max_trials=BUDGET).run()
    feasible = [t.metric("throughput") for t in opt.history.completed() if t.metric("mem_overrun_mb") <= 0]
    return max(feasible, default=np.nan)


def test_e29_constrained_vs_penalised(table):
    constrained = np.array([_best_feasible(ConstrainedBayesianOptimizer, seed) for seed in POWERED_SEEDS])
    penalised = np.array([_best_feasible(BayesianOptimizer, seed) for seed in POWERED_SEEDS])
    powered = paired_ratio_interval(constrained, penalised)
    table(
        f"E29 (slide 60) — throughput under a {MEMORY_BUDGET_MB:.0f} MB budget ({BUDGET} trials, "
        f"{len(POWERED_SEEDS)} seeds)",
        ["method", "mean best feasible tput", "seeds with a feasible trial"],
        [
            ("constrained BO (feasibility-weighted EI)", np.nanmean(constrained), int(np.isfinite(constrained).sum())),
            ("BO, violations as failures", np.nanmean(penalised), int(np.isfinite(penalised).sum())),
        ],
    )
    table(
        f"E29 — constrained / penalised best feasible throughput, paired over {len(POWERED_SEEDS)} seeds",
        ["mean ratio", "90% interval low", "90% interval high"],
        [powered],
    )
    # Shape: every campaign finds a feasible configuration, and modelling the
    # constraint beats learning it from failures (threshold read off the first
    # powered run, 1.32 [1.11, 1.54]).
    assert np.isfinite(constrained).all() and np.isfinite(penalised).all()
    assert powered[1] >= 1.0
