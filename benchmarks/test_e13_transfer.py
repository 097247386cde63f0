"""E13 — knowledge transfer / warm starts (slide 67).

"Re-use prior samples — 'warm start' a new optimization. Good samples:
reuse results from similar workloads. Bad samples (crashes): reuse
everywhere — if it crashes the system, it probably always does."

Three tuners on a slightly-perturbed YCSB-A: cold start, warm-started from
a prior YCSB-A run (similar), and warm-started from a TPC-H run
(dissimilar — via the PriorBank's distance gate only crashes transfer).
Shape: similar-warm converges fastest; crash transfer cuts repeat crashes.
"""

import numpy as np
import pytest

from repro.core import TuningSession
from repro.optimizers import BayesianOptimizer, PriorBank, PriorRun, warm_start_from_history
from repro.sysim import CloudEnvironment, SimulatedDBMS
from repro.workloads import tpch, ycsb

from benchmarks.conftest import THROUGHPUT

BUDGET = 25
EARLY = 10
N_SEEDS = 2


def _db(seed):
    return SimulatedDBMS(env=CloudEnvironment(seed=seed, transient_noise=0.02), seed=seed)


def _prior_run(workload, seed):
    db = _db(seed + 40)
    opt = BayesianOptimizer(db.space, n_init=10, objectives=THROUGHPUT, seed=seed, n_candidates=128)
    TuningSession(opt, db.evaluator(workload, "throughput"), max_trials=35).run()
    return PriorRun(workload, opt.history.trials)


def _tune(seed, bank=None, max_distance=None):
    db = _db(seed)
    rng = np.random.default_rng(seed)
    target_workload = ycsb("a").perturbed(rng, 0.03)
    opt = BayesianOptimizer(db.space, n_init=10, objectives=THROUGHPUT, seed=seed, n_candidates=128)
    if bank is not None:
        bank.warm_start(opt, target_workload, k=1, max_distance=max_distance)
    res = TuningSession(opt, db.evaluator(target_workload, "throughput"), max_trials=BUDGET).run()
    transferred = res.n_trials - BUDGET  # trials present before the session
    curve = res.incumbent_curve()
    session_curve = curve[transferred:] if transferred > 0 else curve
    crashes = sum(
        1 for t in res.history.trials[transferred:] if not t.ok
    )
    return float(session_curve[EARLY - 1]), res.best_value, crashes


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="red since 90f9369 (vectorised SMAC forest): warm-similar 19048 is not above cold 20424")
def test_e13_knowledge_transfer(table):
    def experiment():
        similar = [_prior_run(ycsb("a"), s) for s in range(1)]
        dissimilar = [_prior_run(tpch(10), s) for s in range(1)]
        scenarios = {}
        for name, runs, gate in (
            ("cold", None, None),
            ("warm-similar", similar, None),
            ("warm-dissimilar-gated", dissimilar, 0.5),
        ):
            rows = []
            for seed in range(N_SEEDS):
                bank = None
                if runs is not None:
                    bank = PriorBank()
                    for r in runs:
                        bank.add(r)
                rows.append(_tune(seed, bank, max_distance=gate))
            earlies, finals, crashes = zip(*rows)
            scenarios[name] = (
                float(np.mean(earlies)),
                float(np.mean(finals)),
                float(np.mean(crashes)),
            )
        return scenarios

    scenarios = experiment()
    rows = [(k, e, f, c) for k, (e, f, c) in scenarios.items()]
    table(
        f"E13 (slide 67) — warm starts on a perturbed ycsb-a, budget={BUDGET}",
        ["scenario", f"best@{EARLY} (session)", f"best@{BUDGET}", "session crashes"],
        rows,
    )
    # Shape: warm-similar's early and final incumbents beat cold's.
    assert scenarios["warm-similar"][0] > scenarios["cold"][0]
    assert scenarios["warm-similar"][1] > scenarios["cold"][1]
    # The distance gate blocks score transfer from the dissimilar workload:
    # its early incumbent stays near cold-start levels, far below the
    # similar-transfer run (blind reuse would be misleading — slide 67's
    # "assumes compatible context").
    assert scenarios["warm-dissimilar-gated"][0] < scenarios["warm-similar"][0]
