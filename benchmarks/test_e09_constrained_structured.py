"""E9 — constrained + structured search spaces (slides 60–61).

(a) **Constrained optimization**: declaring the MySQL-style closed-form
constraint (WAL buffer must fit in the buffer pool) lets the sampler stay
feasible; leaving the constraint undeclared turns those configurations
into crashed trials that burn budget.

(b) **Structured spaces**: the PostgreSQL ``jit`` dependency — when the
condition is declared, ``jit_above_cost`` stops wasting dimensions while
``jit=off``; an un-structured space must learn the irrelevance from data.
"""

import numpy as np

from repro.core import TuningSession
from repro.optimizers import BayesianOptimizer, RandomSearchOptimizer
from repro.space import ConfigurationSpace
from repro.sysim import CloudEnvironment, SimulatedDBMS
from repro.workloads import tpch, ycsb

from benchmarks.conftest import P95, THROUGHPUT

BUDGET = 30


def _strip_constraints(space: ConfigurationSpace) -> ConfigurationSpace:
    bare = ConfigurationSpace(space.name + "-unconstrained")
    for p in space.parameters:
        bare.add(p)
    for c in space.conditions:
        bare.add_condition(c)
    return bare


def _strip_conditions(space: ConfigurationSpace) -> ConfigurationSpace:
    flat = ConfigurationSpace(space.name + "-flat")
    for p in space.parameters:
        flat.add(p)
    for c in space.constraints:
        flat.add_constraint(c)
    return flat


def test_e09_constraints_and_structure(table):
    def experiment():
        # (a) Declared vs undeclared constraint: count crashed trials.
        crash_counts = {}
        for label, transform in (("declared", lambda s: s), ("undeclared", _strip_constraints)):
            crashes = []
            for seed in range(3):
                db = SimulatedDBMS(env=CloudEnvironment(seed=seed), seed=seed)
                space = transform(db.space.subspace(["wal_buffer_mb", "buffer_pool_mb", "worker_threads"]))
                opt = RandomSearchOptimizer(space, THROUGHPUT, seed=seed)
                res = TuningSession(opt, db.evaluator(ycsb("a"), "throughput"), max_trials=BUDGET).run()
                crashes.append(len(res.history.failed()))
            crash_counts[label] = float(np.mean(crashes))

        # (b) Conditional jit structure: tune the analytics knobs.
        struct_best = {}
        knobs = ["jit", "jit_above_cost", "work_mem_mb", "parallel_workers", "buffer_pool_mb"]
        for label, transform in (("structured", lambda s: s), ("flat", _strip_conditions)):
            bests = []
            for seed in range(3):
                db = SimulatedDBMS(env=CloudEnvironment(seed=seed), seed=seed)
                space = transform(db.space.subspace(knobs))
                opt = BayesianOptimizer(space, n_init=8, objectives=P95, seed=seed, n_candidates=128)
                res = TuningSession(opt, db.evaluator(tpch(5), "latency_p95"), max_trials=BUDGET).run()
                bests.append(res.best_value)
            struct_best[label] = float(np.mean(bests))
        return crash_counts, struct_best

    crash_counts, struct_best = experiment()
    table(
        f"E9a (slide 60) — declared vs undeclared constraint, {BUDGET} random trials",
        ["constraint handling", "mean crashed trials"],
        list(crash_counts.items()),
    )
    table(
        f"E9b (slide 61) — jit dependency structure, BO budget={BUDGET}",
        ["space", "mean best P95 (ms)"],
        list(struct_best.items()),
    )
    # Shape: declaring the constraint eliminates that crash class. (The
    # black-box OOM region remains — it is not expressible as a closed-form
    # constraint, which is exactly slide 60's distinction.)
    assert crash_counts["declared"] <= 1.5
    assert crash_counts["undeclared"] >= crash_counts["declared"] + 2.0
    # Shape: exploiting the structure does not hurt, and typically helps.
    assert struct_best["structured"] <= struct_best["flat"] * 1.1
