"""E8 — multi-objective optimization (slide 58).

Minimize P95 latency while minimizing memory footprint (a cost proxy):
the two genuinely conflict on the DBMS (low latency wants a huge buffer
pool). Compare ParEGO's augmented-Tchebycheff scalarisation against the
plain linear scalarisation, by dominated hypervolume and front size.
Shape: both trace a front; ParEGO's hypervolume ≥ linear's (Tchebycheff
reaches non-convex regions).

The two-seed table is the slide's; the hypervolume claim is also a paired
comparison over :data:`POWERED_SEEDS` (the first two of which are the
table's): the mean of the per-seed ratio ParEGO / linear hypervolume, with
its bootstrap interval.
"""

import numpy as np

from repro.core import Objective, TuningSession
from repro.optimizers import LinearScalarizationOptimizer, ParEGOOptimizer, hypervolume_2d
from repro.sysim import QUIET_CLOUD, SimulatedDBMS
from repro.workloads import ycsb

from benchmarks.conftest import POWERED_SEEDS, paired_ratio_interval

BUDGET = 35
OBJECTIVES = [Objective("latency_p95", minimize=True), Objective("mem_util", minimize=True)]
WORKLOAD = ycsb("b")
REFERENCE = np.array([10.0, 1.0])  # nadir: 10 ms, 100 % memory


def _run(opt_cls, seed):
    db = SimulatedDBMS(env=QUIET_CLOUD(seed=seed), seed=seed)
    space = db.space.subspace(["buffer_pool_mb", "worker_threads", "work_mem_mb", "io_concurrency"])
    opt = opt_cls(space, OBJECTIVES, n_init=10, n_candidates=128, seed=seed)
    TuningSession(opt, db.evaluator(WORKLOAD), max_trials=BUDGET).run()
    return opt


def _front(opt_cls, seed):
    """(hypervolume, front size, mem_util span of the front) of one campaign."""
    opt = _run(opt_cls, seed)
    front = opt.pareto_trials()
    mems = [t.metric("mem_util") for t in front]
    return hypervolume_2d(opt.objective_values(), REFERENCE), len(front), max(mems) - min(mems) if mems else 0.0


def test_e08_pareto_front(table):
    runs = {
        name: np.array([_front(cls, seed) for seed in POWERED_SEEDS])
        for name, cls in (("parego", ParEGOOptimizer), ("linear", LinearScalarizationOptimizer))
    }
    results = {name: tuple(float(v) for v in per_seed[:2].mean(axis=0)) for name, per_seed in runs.items()}
    rows = [(name, hv, n, span) for name, (hv, n, span) in results.items()]
    table(
        f"E8 (slide 58) — latency vs memory Pareto front, budget={BUDGET}",
        ["scalarisation", "hypervolume", "front size", "mem_util span"],
        rows,
    )
    powered = paired_ratio_interval(runs["parego"][:, 0], runs["linear"][:, 0])
    table(
        f"E8 — ParEGO / linear hypervolume, paired over {len(POWERED_SEEDS)} seeds",
        ["mean ratio", "90% interval low", "90% interval high"],
        [powered],
    )
    hv_parego, n_parego, span_parego = results["parego"]
    hv_linear, _, _ = results["linear"]
    # Shape: ParEGO traces a real front (several points spanning the
    # memory axis) and does not lose to linear scalarisation.
    assert n_parego >= 3
    assert span_parego > 0.05
    assert hv_parego >= hv_linear * 0.9
    # Powered: the same claim on 20 paired seeds (threshold read off the first
    # powered run, 0.998 [0.996, 1.00]; no gain is claimed either way).
    assert powered[1] >= 0.98
