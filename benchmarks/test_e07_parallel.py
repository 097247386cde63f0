"""E7 — parallel optimization (slide 57).

"Optimizer suggests many configurations at once. Synchronous: always
suggest k points, batch execute. Asynchronous: suggest 1 at a time, track
up to k in-progress." Shape on a fixed trial budget: parallel modes cut
wall-clock roughly by the worker count; async beats sync when trial
durations vary; sample efficiency degrades only mildly (constant-liar
batches stay diverse).
"""

import numpy as np

from repro.optimizers import BayesianOptimizer, ParallelRunner
from repro.sysim import CloudEnvironment, SimulatedDBMS
from repro.workloads import tpcc

from benchmarks.conftest import THROUGHPUT

BUDGET = 32
WORKERS = 4
WORKLOAD = tpcc(100)


def _runner(mode, seed):
    db = SimulatedDBMS(env=CloudEnvironment(seed=seed, transient_noise=0.02), seed=seed)
    opt = BayesianOptimizer(db.space, n_init=8, objectives=THROUGHPUT, seed=seed, n_candidates=128)
    # Trial duration varies with the measured elapsed time (restarts!).
    return ParallelRunner(opt, db.evaluator(WORKLOAD, "throughput"), n_workers=WORKERS, mode=mode)


def test_e07_parallel_modes(table):
    def experiment():
        out = {}
        for mode in ("serial", "sync", "async"):
            runs = [_runner(mode, seed).run(BUDGET) for seed in range(2)]
            out[mode] = (
                float(np.mean([r.wall_clock_s for r in runs])),
                float(np.mean([r.result.best_value for r in runs])),
            )
        return out

    results = experiment()
    rows = [
        (mode, wall, best, results["serial"][0] / wall)
        for mode, (wall, best) in results.items()
    ]
    table(
        f"E7 (slide 57) — parallel execution, {BUDGET} trials on {WORKERS} workers",
        ["mode", "wall clock (s)", "mean best tput", "speedup vs serial"],
        rows,
    )
    serial_wall, serial_best = results["serial"]
    sync_wall, sync_best = results["sync"]
    async_wall, async_best = results["async"]
    # Shape: parallel modes deliver a large wall-clock win...
    assert sync_wall < serial_wall / 2
    assert async_wall < serial_wall / 2
    # ...async is at least as fast as sync (no barrier)...
    assert async_wall <= sync_wall * 1.05
    # ...and batched suggestion keeps most of the sample efficiency.
    assert min(sync_best, async_best) > serial_best * 0.6
