"""E14 — "Focus on the Important Knobs!" (slide 68).

OtterTune's Lasso (and a SHAP-adjacent permutation ranking) on a tuning
history must recover the DBMS's genuinely important knobs from 21
candidates; tuning only the discovered top-5 should approach the quality
of tuning all 21 on the same budget, while tuning the bottom-5 goes
nowhere — the entire reason importance ranking exists.
"""

import numpy as np

from repro.analysis import LassoImportance, permutation_importance
from repro.core import TuningSession
from repro.optimizers import BayesianOptimizer, RandomSearchOptimizer
from repro.sysim import CloudEnvironment, SimulatedDBMS
from repro.workloads import tpcc

from benchmarks.conftest import THROUGHPUT

HISTORY_TRIALS = 130
TUNE_BUDGET = 20
WORKLOAD = tpcc(100)


def _db(seed):
    return SimulatedDBMS(env=CloudEnvironment(seed=seed, transient_noise=0.02), seed=seed)


def _tune_subspace(names, seed):
    db = _db(seed)
    space = db.space.subspace(list(names)) if names else db.space
    opt = BayesianOptimizer(space, n_init=6, objectives=THROUGHPUT, seed=seed, n_candidates=128)
    return TuningSession(opt, db.evaluator(WORKLOAD, "throughput"), max_trials=TUNE_BUDGET).run().best_value


def test_e14_knob_importance(table):
    def experiment():
        db = _db(0)
        opt = RandomSearchOptimizer(db.space, THROUGHPUT, seed=0)
        TuningSession(opt, db.evaluator(WORKLOAD, "throughput"), max_trials=HISTORY_TRIALS).run()
        lasso = LassoImportance(db.space).rank(opt.history)
        perm = permutation_importance(db.space, opt.history, seed=0)

        top6 = lasso.top(6)
        bottom6 = list(lasso.knobs[-6:])
        results = {
            "top-6 (lasso)": float(np.mean([_tune_subspace(top6, s) for s in range(2)])),
            "all-21": float(np.mean([_tune_subspace(None, s) for s in range(2)])),
            "bottom-6 (lasso)": float(np.mean([_tune_subspace(bottom6, s) for s in range(2)])),
        }
        default = _db(9).run(WORKLOAD, config=_db(9).space.default_configuration()).throughput
        return db, lasso, perm, results, default

    db, lasso, perm, results, default = experiment()
    table(
        f"E14 (slide 68) — knob rankings from {HISTORY_TRIALS} random trials",
        ["rank", "lasso", "permutation"],
        [(i + 1, lasso.knobs[i], perm.knobs[i]) for i in range(8)],
    )
    table(
        f"E14 — tuning discovered subspaces, budget={TUNE_BUDGET}",
        ["subspace", "mean best throughput", "x over default"],
        [(k, v, v / default) for k, v in results.items()],
    )
    # Shape: both rankings recover most truly-important knobs up top.
    for ranking in (lasso, perm):
        hits = len(set(ranking.top(6)) & set(db.IMPORTANT_KNOBS))
        assert hits >= 3, (ranking.knobs[:6], db.IMPORTANT_KNOBS)
    # Junk knobs do not crack the top of either ranking.
    assert not (set(lasso.top(3)) & set(db.JUNK_KNOBS))
    # Tuning the top-6 is close to tuning everything; bottom-6 is not.
    assert results["top-6 (lasso)"] >= results["all-21"] * 0.7
    assert results["bottom-6 (lasso)"] < results["top-6 (lasso)"] * 0.7
