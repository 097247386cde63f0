"""E27 — Hyperband vs random search at equal total cost (slides 65–66).

Multi-fidelity without a model: Hyperband (Li et al. 2018) spends most of
its budget on cheap, small-scale benchmark runs and promotes only the best
third of each rung to the next, three times larger scale, while random
search pays full price for every configuration it tries. The fidelity
ladder is E12's: TPC-C scale is the budget (11, 33 and 100 warehouses; E12's
cheap and full rungs are 10 and 100), and a run costs in proportion to its
scale, 8 units at full scale as in E12. Both arms tune E12's five knobs
through a journaled ``SessionManager`` session driven by ``run()``, with
``max_cost`` as the budget: Hyperband's evaluator runs each trial at the
scale its rung proposes as the fidelity, random search's at full scale.

The claim is a paired comparison over :data:`POWERED_SEEDS`: the mean of the
per-seed ratio of best full-scale throughput, Hyperband / random search,
with its bootstrap interval. A refused configuration costs 1 unit in both
arms, as the evaluator protocol charges it.
"""

import numpy as np

from repro.core import SessionManager
from repro.sysim import CloudEnvironment, SimulatedDBMS
from repro.workloads import tpcc

from benchmarks.conftest import POWERED_SEEDS, THROUGHPUT, paired_ratio_interval

FULL_W = 100
FULL_COST = 8.0  # cost units of one full-scale run; one unit ≈ a 12-warehouse run
COST_BUDGET = 96.0  # E12's powered budget: 12 full-scale runs
KNOBS = ["buffer_pool_mb", "worker_threads", "flush_method", "work_mem_mb", "io_concurrency"]


def _db(seed):
    return SimulatedDBMS(env=CloudEnvironment(seed=seed, transient_noise=0.02), seed=seed)


def _cost(warehouses):
    return FULL_COST * warehouses / FULL_W


def _hyperband(manager, seed):
    """Best full-scale throughput of a Hyperband campaign, and its trial count."""
    db = _db(seed)

    def evaluate(config, fidelity):
        warehouses = round(fidelity)
        return db.run(tpcc(warehouses), config=config).metrics(), _cost(warehouses)

    session = manager.create(
        db.space.subspace(KNOBS), optimizer="hyperband", objectives=THROUGHPUT, max_trials=10_000,
        max_cost=COST_BUDGET, seed=seed, session_id=f"e27-hyperband-{seed}", lint=False, evaluator=evaluate,
        optimizer_options={"max_budget": float(FULL_W), "min_budget": FULL_W / 9},  # rungs of 11, 33, 100 W
    )
    session.run()
    best = session.optimizer.best_config()
    top = [t for t in session.optimizer.history if t.fidelity == FULL_W and t.config == best]
    return top[0].metric("throughput"), len(session.optimizer.history)


def _random(manager, seed):
    db = _db(seed)
    session = manager.create(
        db.space.subspace(KNOBS), optimizer="random", objectives=THROUGHPUT, max_trials=10_000,
        max_cost=COST_BUDGET, seed=seed, session_id=f"e27-random-{seed}", lint=False,
        evaluator=lambda config: (db.run(tpcc(FULL_W), config=config).metrics(), FULL_COST),
    )
    result = session.run()
    return result.best_value, result.n_trials


def test_e27_hyperband_vs_random(table):
    manager = SessionManager()
    hyperband = np.array([_hyperband(manager, seed) for seed in POWERED_SEEDS])
    random = np.array([_random(manager, seed) for seed in POWERED_SEEDS])
    powered = paired_ratio_interval(hyperband[:, 0], random[:, 0])
    table(
        f"E27 — Hyperband vs random search at equal cost ({COST_BUDGET:g} units, {len(POWERED_SEEDS)} seeds)",
        ["method", "mean best full-scale tput", "mean trials"],
        [("Hyperband (11/33/100 W)", hyperband[:, 0].mean(), hyperband[:, 1].mean()),
         ("random search (100 W)", random[:, 0].mean(), random[:, 1].mean())],
    )
    table(
        f"E27 — Hyperband / random best, paired over {len(POWERED_SEEDS)} seeds",
        ["mean ratio", "90% interval low", "90% interval high"],
        [powered],
    )
    # Shape: at equal cost, Hyperband's best full-scale configuration is at
    # least as good as random search's (threshold read off the first powered
    # run, 1.14 [1.03, 1.25]).
    assert powered[1] >= 1.0
