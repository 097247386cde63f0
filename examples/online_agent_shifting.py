"""Online tuning under workload shift, with a safety guardrail.

Production starts on read-mostly YCSB-B, then the tenant's behaviour
flips to write-heavy TPC-C. A static configuration goes stale; an
OPPerTune-style hybrid-bandit agent and an OnlineTune-style contextual-BO
agent (BO over configuration ⊕ observation) keep adapting. A guardrail
rolls back any step that regresses more than 30 % against the recent
baseline.

Run:  python examples/online_agent_shifting.py
"""

import numpy as np

from repro import Objective
from repro.analysis import print_table
from repro.online import (
    ContextualBayesianOptimizer,
    Guardrail,
    HybridBanditTuner,
    OnlineTuningAgent,
    StaticConfigPolicy,
)
from repro.sysim import CloudEnvironment, SimulatedDBMS
from repro.workloads import PhasedTrace, tpcc, ycsb

THROUGHPUT = Objective("throughput", minimize=False)
KNOBS = ["buffer_pool_mb", "worker_threads", "work_mem_mb", "checkpoint_interval_s", "flush_method"]
trace = PhasedTrace([(ycsb("b"), 60), (tpcc(100), 60)])


def run(policy_name: str):
    db = SimulatedDBMS(env=CloudEnvironment(seed=3, transient_noise=0.03), seed=3)
    space = db.space.subspace(KNOBS)
    if policy_name == "static default":
        policy = StaticConfigPolicy(space.default_configuration())
    elif policy_name == "contextual BO agent":
        policy = ContextualBayesianOptimizer(space, seed=0, n_candidates=64)
    else:
        policy = HybridBanditTuner(space, seed=0)
    agent = OnlineTuningAgent(db, policy, THROUGHPUT, guardrail=Guardrail(tolerance=0.3))
    return agent.run(trace)


results = {name: run(name) for name in ("static default", "hybrid bandit agent", "contextual BO agent")}

rows = []
for name, res in results.items():
    v = res.values()
    rows.append(
        (
            name,
            f"{v[:60].mean():,.0f}",
            f"{v[60:].mean():,.0f}",
            f"{v.mean():,.0f}",
            sum(r.rolled_back for r in res.records),
            sum(r.crashed for r in res.records),
        )
    )
print_table(
    ["policy", "phase-1 tput", "phase-2 tput", "overall", "rollbacks", "crashes"],
    rows,
    title=f"online tuning across a workload shift at t=60 ({len(trace)} steps)",
)

static = results["static default"].values()
for name in ("hybrid bandit agent", "contextual BO agent"):
    adaptive = results[name].values()
    print(f"\n{name} vs static, overall: {adaptive.mean() / static.mean():.2f}x")
    print("last 10 steps:", np.round(adaptive[-10:]).astype(int).tolist())
