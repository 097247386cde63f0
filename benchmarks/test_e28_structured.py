"""E28 — structured vs flat BO on the PostgreSQL ``jit`` dependency (slide 61).

"If PostgreSQL ``jit=off``, ignore ``jit_above_cost``": the DBMS space
declares that condition, so a configuration lives on one of two activation
patterns. Flat BO (:class:`BayesianOptimizer`) fits one GP over the encoded
knobs and lets the pinned ``jit_above_cost`` of ``jit=off`` trials sit in
the same distance as a tuned one. :class:`StructuredBayesianOptimizer` gives
the activation pattern its own column, read by a coregionalised kernel, so
the GP learns how much the two patterns share and scores each candidate at
its own pattern. Both arms tune five analytics knobs under TPC-H (scale 5)
for P95 latency, where JIT pays off only when its cost threshold lets it
kick in.

The claim is a paired comparison over :data:`POWERED_SEEDS` at a reduced
budget: the mean of the per-seed ratio of best P95, flat / structured, with
its bootstrap interval (above 1 means structured found the lower latency).
"""

import numpy as np

from repro.core import TuningSession
from repro.optimizers import BayesianOptimizer, StructuredBayesianOptimizer
from repro.sysim import CloudEnvironment, SimulatedDBMS
from repro.workloads import tpch

from benchmarks.conftest import P95, POWERED_SEEDS, paired_ratio_interval

KNOBS = ["jit", "jit_above_cost", "work_mem_mb", "parallel_workers", "buffer_pool_mb"]
BUDGET = 20


def _best_p95(cls, seed):
    db = SimulatedDBMS(env=CloudEnvironment(seed=seed), seed=seed)
    opt = cls(db.space.subspace(KNOBS), n_init=6, n_candidates=128, objectives=P95, seed=seed)
    return TuningSession(opt, db.evaluator(tpch(5), "latency_p95"), max_trials=BUDGET).run().best_value


def test_e28_structured_vs_flat(table):
    structured = np.array([_best_p95(StructuredBayesianOptimizer, seed) for seed in POWERED_SEEDS])
    flat = np.array([_best_p95(BayesianOptimizer, seed) for seed in POWERED_SEEDS])
    powered = paired_ratio_interval(flat, structured)
    table(
        f"E28 (slide 61) — structured vs flat BO on the jit dependency ({BUDGET} trials, {len(POWERED_SEEDS)} seeds)",
        ["method", "mean best P95 (ms)"],
        [("structured BO (pattern column)", structured.mean()), ("flat BO", flat.mean())],
    )
    table(
        f"E28 — flat / structured best P95, paired over {len(POWERED_SEEDS)} seeds",
        ["mean ratio", "90% interval low", "90% interval high"],
        [powered],
    )
    # Shape: exploiting the structure does not lose to flat BO (threshold read
    # off the first powered run, 0.992 [0.896, 1.12]; no gain is claimed).
    assert powered[1] >= 0.85
