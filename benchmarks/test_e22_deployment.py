"""E22 — deployment levels: what a knob *costs to change* (slide 19).

"Regularly runtime adjustable? Only at startup time? Is it expensive to
restart — do you lose buffer pool or cache contents?" Tuning campaigns
that keep flipping startup knobs pay a restart penalty on every trial.

Two sessions with identical optimizers and budgets on the DBMS:
(a) all knobs (every buffer-pool change restarts the server);
(b) runtime-adjustable knobs only (startup knobs stay at a one-time-set
value). Shape: the all-knob session finds a better config but pays far
more benchmark time per trial; runtime-only is the cheap fine-tuning pass
the slide recommends doing *after* a good startup config is installed —
and the combination (set startup knobs once, fine-tune runtime knobs)
captures most of the benefit at low marginal cost.
"""

import numpy as np

from repro.core import TuningSession
from repro.optimizers import BayesianOptimizer
from repro.sysim import CloudEnvironment, KnobLevel, SimulatedDBMS
from repro.workloads import tpcc

from benchmarks.conftest import THROUGHPUT

BUDGET = 30
WORKLOAD = tpcc(100)


def _db(seed):
    return SimulatedDBMS(env=CloudEnvironment(seed=seed, transient_noise=0.02), seed=seed)


def _runtime_knobs(db):
    levels = db.knob_levels()
    return [n for n in db.space.names if levels.get(n, KnobLevel.RUNTIME) is KnobLevel.RUNTIME]


def _tune(db, space, seed):
    opt = BayesianOptimizer(space, n_init=8, objectives=THROUGHPUT, seed=seed, n_candidates=128)
    res = TuningSession(opt, db.evaluator(WORKLOAD, "throughput"), max_trials=BUDGET).run()
    return res.best_value, res.total_cost, db.restart_count


def test_e22_deployment_levels(table):
    def experiment():
        out = {}
        # (a) tune everything: startup knobs restart the server per change.
        db = _db(0)
        out["all knobs"] = _tune(db, db.space, 0)
        # (b) runtime knobs only.
        db = _db(0)
        out["runtime knobs only"] = _tune(db, db.space.subspace(_runtime_knobs(db)), 0)
        # (c) combined: install good startup values once, then fine-tune.
        db = _db(0)
        db.apply(db.space.make({
            "buffer_pool_mb": 8192, "worker_threads": 64,
            "flush_method": "O_DIRECT_NO_FSYNC",
        }))
        best, cost, restarts = _tune(db, db.space.subspace(_runtime_knobs(db)), 0)
        out["startup-once + runtime tuning"] = (best, cost, restarts)
        return out

    results = experiment()
    rows = [(k, b, c, r) for k, (b, c, r) in results.items()]
    table(
        f"E22 (slide 19) — deployment levels, {BUDGET} trials each",
        ["strategy", "best throughput", "benchmark seconds", "restarts"],
        rows,
    )
    all_best, all_cost, all_restarts = results["all knobs"]
    rt_best, rt_cost, rt_restarts = results["runtime knobs only"]
    combo_best, combo_cost, combo_restarts = results["startup-once + runtime tuning"]
    # Shape: tuning startup knobs restarts constantly; runtime-only almost never.
    assert all_restarts > BUDGET * 0.5
    assert rt_restarts <= 2
    # Runtime-only is cheaper per trial (no restart penalties)...
    assert rt_cost < all_cost
    # ...but leaves headroom on the table (startup knobs matter).
    assert rt_best < all_best
    # The recommended combination captures most of the gain at low cost.
    assert combo_best > all_best * 0.7
    assert combo_cost < all_cost
    assert combo_restarts <= 2  # one restart to install the startup config
