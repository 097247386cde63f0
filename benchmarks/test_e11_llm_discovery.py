"""E11 — LLM-guided knob discovery (slides 63–64, DB-BERT / GPTuner).

The simulated-LLM pipeline: extract important knobs + range priors from
the knob manuals, tune only that informed subspace. Compared against
(a) BO over all 21 knobs, (b) BO over a *random* 5-knob subspace (what
you get without the manual), and (c) the extractor's ranking quality vs
expert labels. Shape: informed ≫ random-subset, informed ≥ full-space
early (the GPTuner claim), extraction correlates with expert labels.
"""

import numpy as np

from repro.core import TuningSession
from repro.knowledge import DBMS_MANUAL, ManualKnowledgeExtractor
from repro.optimizers import BayesianOptimizer
from repro.sysim import CloudEnvironment, SimulatedDBMS
from repro.workloads import tpcc

from benchmarks.conftest import THROUGHPUT

BUDGET = 30
EARLY = 15
N_SEEDS = 3
WORKLOAD = tpcc(100)


def _db(seed):
    return SimulatedDBMS(env=CloudEnvironment(seed=seed, transient_noise=0.02), seed=seed)


def _run(space_fn, seed):
    db = _db(seed)
    space = space_fn(db, seed)
    opt = BayesianOptimizer(space, n_init=8, objectives=THROUGHPUT, seed=seed, n_candidates=128)
    res = TuningSession(opt, db.evaluator(WORKLOAD, "throughput"), max_trials=BUDGET).run()
    return res.best_value, float(res.incumbent_curve()[EARLY - 1])


def test_e11_manual_discovery(table):
    extractor = ManualKnowledgeExtractor()

    def experiment():
        def informed(db, seed):
            return extractor.informed_space(db.space, k=5)

        def full(db, seed):
            return db.space

        def random_subset(db, seed):
            rng = np.random.default_rng(seed + 50)
            names = list(rng.choice(db.space.names, size=5, replace=False))
            return db.space.subspace(names)

        out = {}
        for name, fn in (("manual-informed-5", informed), ("full-21", full), ("random-5", random_subset)):
            finals, earlies = zip(*[_run(fn, seed) for seed in range(N_SEEDS)])
            out[name] = (float(np.mean(earlies)), float(np.mean(finals)))

        # Extraction quality vs expert labels.
        discovered = extractor.discover()
        scores = np.array([d.score for d in discovered])
        truth = np.array([DBMS_MANUAL[d.knob].expert_importance for d in discovered])
        rho = float(np.corrcoef(
            np.argsort(np.argsort(-scores)), np.argsort(np.argsort(-truth))
        )[0, 1])
        return out, rho

    results, rho = experiment()
    rows = [(name, early, final) for name, (early, final) in results.items()]
    table(
        f"E11 (slides 63-64) — manual-driven knob discovery on {WORKLOAD.name}",
        ["search space", f"best@{EARLY}", f"best@{BUDGET}"],
        rows,
    )
    table(
        "E11 — extraction quality",
        ["metric", "value"],
        [("rank correlation vs expert labels", rho)],
    )
    # Shape claims.
    assert rho > 0.6
    assert results["manual-informed-5"][1] > results["random-5"][1]
    assert results["manual-informed-5"][0] >= results["full-21"][0] * 0.9
