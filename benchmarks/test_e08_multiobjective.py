"""E8 — multi-objective optimization (slide 58).

Minimize P95 latency while minimizing memory footprint (a cost proxy):
the two genuinely conflict on the DBMS (low latency wants a huge buffer
pool). Compare ParEGO's augmented-Tchebycheff scalarisation against the
plain linear scalarisation, by dominated hypervolume and front size.
Shape: both trace a front; ParEGO's hypervolume ≥ linear's (Tchebycheff
reaches non-convex regions).
"""

import numpy as np

from repro.core import Objective, TuningSession
from repro.optimizers import LinearScalarizationOptimizer, ParEGOOptimizer, hypervolume_2d
from repro.sysim import QUIET_CLOUD, SimulatedDBMS
from repro.workloads import ycsb

BUDGET = 35
OBJECTIVES = [Objective("latency_p95", minimize=True), Objective("mem_util", minimize=True)]
WORKLOAD = ycsb("b")


def _run(opt_cls, seed):
    db = SimulatedDBMS(env=QUIET_CLOUD(seed=seed), seed=seed)
    space = db.space.subspace(["buffer_pool_mb", "worker_threads", "work_mem_mb", "io_concurrency"])
    opt = opt_cls(space, OBJECTIVES, n_init=10, n_candidates=128, seed=seed)
    TuningSession(opt, db.multi_metric_evaluator(WORKLOAD), max_trials=BUDGET).run()
    return opt


def test_e08_pareto_front(table):
    def experiment():
        out = {}
        for name, cls in (("parego", ParEGOOptimizer), ("linear", LinearScalarizationOptimizer)):
            hvs, fronts, spans = [], [], []
            for seed in range(2):
                opt = _run(cls, seed)
                F = opt.objective_values()
                ref = np.array([10.0, 1.0])  # nadir: 10 ms, 100 % memory
                hvs.append(hypervolume_2d(F, ref))
                front = opt.pareto_trials()
                fronts.append(len(front))
                mems = [t.metric("mem_util") for t in front]
                spans.append(max(mems) - min(mems) if mems else 0.0)
            out[name] = (float(np.mean(hvs)), float(np.mean(fronts)), float(np.mean(spans)))
        return out

    results = experiment()
    rows = [(name, hv, n, span) for name, (hv, n, span) in results.items()]
    table(
        f"E8 (slide 58) — latency vs memory Pareto front, budget={BUDGET}",
        ["scalarisation", "hypervolume", "front size", "mem_util span"],
        rows,
    )
    hv_parego, n_parego, span_parego = results["parego"]
    hv_linear, _, _ = results["linear"]
    # Shape: ParEGO traces a real front (several points spanning the
    # memory axis) and does not lose to linear scalarisation.
    assert n_parego >= 3
    assert span_parego > 0.05
    assert hv_parego >= hv_linear * 0.9
