"""E7 — parallel optimization (slide 57).

"Optimizer suggests many configurations at once. Synchronous: always
suggest k points, batch execute. Asynchronous: suggest 1 at a time, track
up to k in-progress." Shape on a fixed trial budget: parallel modes cut
wall-clock roughly by the worker count; async beats sync when trial
durations vary; sample efficiency degrades only mildly (constant-liar
batches stay diverse).

Every mode is a journaled ``TuningSession`` on a ``SimulatedClockExecutor``
(k simulated machines, each trial lasting its measured cost): serial is one
machine, sync is ``batch_size=k``, async is ``batch_size=1`` with k trials
in flight. Each campaign's journal then replays bit-exactly: the DBMS
space's ``wal_fits_bp`` constraint is part of the stored space, so the
replayed sampler draws what the live one drew.
"""

import numpy as np

from repro.core import SessionManager
from repro.execution import SimulatedClockExecutor
from repro.sysim import CloudEnvironment, SimulatedDBMS
from repro.workloads import tpcc

from benchmarks.conftest import THROUGHPUT

BUDGET = 32
WORKERS = 4
WORKLOAD = tpcc(100)
MODES = {"serial": (1, 1), "sync": (WORKERS, WORKERS), "async": (WORKERS, 1)}  # mode -> (machines, batch)


def _campaign(manager, mode, seed):
    machines, batch = MODES[mode]
    db = SimulatedDBMS(env=CloudEnvironment(seed=seed, transient_noise=0.02), seed=seed)
    executor = SimulatedClockExecutor(machines)
    session = manager.create(
        db.space, optimizer="bo", objectives=THROUGHPUT, max_trials=BUDGET, batch_size=batch, seed=seed,
        optimizer_options={"n_init": 8, "n_candidates": 128}, session_id=f"e07-{mode}-{seed}",
        # Trial duration varies with the measured elapsed time (restarts!).
        evaluator=db.evaluator(WORKLOAD, "throughput"), executor=executor, lint=False,
    )
    result = session.run()
    replay = manager.replay_session(session.session_id)
    return executor.wall_clock_s, result.best_value, replay.divergence is not None


def test_e07_parallel_modes(table):
    manager = SessionManager()

    def experiment():
        out, diverged = {}, 0
        for mode in MODES:
            runs = [_campaign(manager, mode, seed) for seed in range(2)]
            out[mode] = (float(np.mean([wall for wall, _, _ in runs])), float(np.mean([best for _, best, _ in runs])))
            diverged += sum(d for _, _, d in runs)
        return out, diverged

    results, diverged = experiment()
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
    # Every campaign's journal replays with zero divergences.
    assert diverged == 0
