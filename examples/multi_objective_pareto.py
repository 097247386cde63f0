"""Multi-objective tuning: the latency/memory Pareto frontier.

"Typically, no x* optimizes all functions simultaneously — Pareto
frontier: solutions not dominated by any other" (slide 58). Low latency
wants a huge buffer pool; a cost-conscious operator wants a small memory
footprint. ParEGO rotates random Tchebycheff weights to trace the whole
trade-off curve in one run; you pick the point your budget allows.

Run:  python examples/multi_objective_pareto.py
"""

import numpy as np

from repro import Objective, ParEGOOptimizer, TuningSession
from repro.analysis import print_table
from repro.optimizers import hypervolume_2d
from repro.sysim import QUIET_CLOUD, SimulatedDBMS
from repro.workloads import ycsb

objectives = [
    Objective("latency_p95", minimize=True),
    Objective("mem_util", minimize=True),
]

db = SimulatedDBMS(env=QUIET_CLOUD(seed=0), seed=0)
space = db.space.subspace(["buffer_pool_mb", "worker_threads", "work_mem_mb", "io_concurrency"])
workload = ycsb("b")

optimizer = ParEGOOptimizer(space, objectives, n_init=10, seed=0)
TuningSession(optimizer, db.evaluator(workload), max_trials=40).run()

front = sorted(optimizer.pareto_trials(), key=lambda t: t.metric("mem_util"))
print_table(
    ["buffer_pool_mb", "worker_threads", "P95 latency (ms)", "memory util"],
    [
        (t.config["buffer_pool_mb"], t.config["worker_threads"],
         t.metric("latency_p95"), t.metric("mem_util"))
        for t in front
    ],
    title=f"Pareto frontier on {workload.name} ({len(front)} non-dominated configs)",
)

F = optimizer.objective_values()
hv = hypervolume_2d(F, np.array([10.0, 1.0]))
print(f"\ndominated hypervolume (nadir 10ms, 100% mem): {hv:.3f}")
print("pick your point: the leftmost rows fit small VMs; the rightmost buy "
      "latency with memory.")
