"""E16 — tuning in a noisy cloud: repeats vs duet vs TUNA (slides 70–71).

A deliberately nasty environment: persistent machine spread, 20 % outlier
machines, strong transient noise. Four evaluation strategies feed the same
BO: single raw run, naive 3× repeats, duet benchmarking (paired runs,
shared interference), and TUNA (successive halving across a VM pool with
sideband-corrected scores). We report the measured score stability and
the *robust* quality of each strategy's chosen config (re-measured on a
quiet reference machine). Shape: duet/TUNA register much stabler scores
than a raw run and pick configs at least as good, at lower cost than
brute-force repeats.

What repeats cost is a paired comparison over :data:`POWERED_SEEDS`: a
repeated trial is three runs, but a run's length depends on the
configuration, so the per-seed cost ratio to a raw campaign sits near 2.45,
and "more than 2.5×", asserted on two seeds, was never supported by more.
"""

import numpy as np

from repro.benchmarking import BenchmarkRunner, DuetBenchmarkRunner, TunaRunner
from repro.core import TuningSession
from repro.optimizers import BayesianOptimizer
from repro.sysim import CloudEnvironment, QUIET_CLOUD, SimulatedDBMS
from repro.workloads import tpcc

from benchmarks.conftest import POWERED_SEEDS, THROUGHPUT, paired_ratio_interval

BUDGET = 20
N_SEEDS = 2
WORKLOAD = tpcc(100)


def _noisy_db(seed):
    env = CloudEnvironment(
        seed=seed,
        transient_noise=0.15,
        load_volatility=0.25,
        machine_spread=0.10,
        outlier_fraction=0.2,
    )
    return SimulatedDBMS(env=env, seed=seed)


def _true_value(config):
    """Ground-truth quality of a config on a quiet reference system."""
    db = SimulatedDBMS(env=QUIET_CLOUD(seed=99), seed=99)
    return db.run(WORKLOAD, config=db.space.make(
        {k: v for k, v in config.as_dict().items() if k in db.space}, check_constraints=False
    )).throughput


def _make_evaluator(kind, db, seed):
    if kind == "raw":
        return BenchmarkRunner(db, WORKLOAD, THROUGHPUT, repeats=1)
    if kind == "repeat-3x":
        return BenchmarkRunner(db, WORKLOAD, THROUGHPUT, repeats=3)
    if kind == "duet":
        return DuetBenchmarkRunner(db, WORKLOAD, THROUGHPUT)
    if kind == "tuna":
        return TunaRunner(db, WORKLOAD, THROUGHPUT, db.env.allocate_pool(6), rungs=(1, 3), seed=seed)
    raise ValueError(kind)


def _measurement_stability(kind, seed):
    """CV of one config's score when the cloud hands you a *fresh machine*
    each time — the instability a tuner actually faces (a raw measurement
    inherits whatever machine it landed on; that is why "throw out outlier
    machines?" is a trap — "may be stuck deployed to those later")."""
    db = _noisy_db(seed + 70)
    evaluator = _make_evaluator(kind, db, seed)
    cfg = db.space.make({"buffer_pool_mb": 4096, "worker_threads": 32})
    values = []
    for _ in range(10):
        db._home_machine = db.env.allocate()  # a new VM for every attempt
        metrics, _ = evaluator(cfg)
        values.append(metrics["throughput"])
    return float(np.std(values) / np.mean(values))


def _run(kind, seed):
    db = _noisy_db(seed)
    evaluator = _make_evaluator(kind, db, seed)
    opt = BayesianOptimizer(db.space, n_init=8, objectives=THROUGHPUT, seed=seed, n_candidates=128)
    res = TuningSession(opt, evaluator, max_trials=BUDGET).run()
    return _true_value(res.best_config), res.total_cost


def test_e16_noise_strategies(table):
    def experiment():
        out = {}
        for kind in ("raw", "repeat-3x", "duet", "tuna"):
            runs = [_run(kind, seed) for seed in range(N_SEEDS)]
            true_values, costs = zip(*runs)
            out[kind] = (
                _measurement_stability(kind, 0),
                float(np.mean(true_values)),
                float(np.mean(costs)),
            )
        return out

    results = experiment()
    rows = [(k, cv, tv, c) for k, (cv, tv, c) in results.items()]
    table(
        f"E16 (slides 70-71) — noise strategies on a nasty cloud, budget={BUDGET} trials",
        ["strategy", "score CV (stability)", "true quality of chosen config", "total cost (s)"],
        rows,
    )
    repeat_cost = paired_ratio_interval(
        [_run("repeat-3x", seed)[1] for seed in POWERED_SEEDS],
        [_run("raw", seed)[1] for seed in POWERED_SEEDS],
    )
    table(
        f"E16 — repeat-3x / raw campaign cost, paired over {len(POWERED_SEEDS)} seeds",
        ["mean ratio", "90% interval low", "90% interval high"],
        [repeat_cost],
    )
    cv = {k: v[0] for k, v in results.items()}
    true_q = {k: v[1] for k, v in results.items()}
    # Shape: duet and TUNA register much stabler scores than a raw run...
    assert cv["duet"] < cv["raw"] / 2
    assert cv["tuna"] < cv["raw"]
    # ...repeats help too but cost three runs per trial...
    assert repeat_cost[1] > 2.0
    # ...and the robust strategies choose configs at least as good as raw's.
    assert max(true_q["duet"], true_q["tuna"]) >= true_q["raw"] * 0.9
