"""Characterisation goldens for the online tuning agent.

Records, for the six E17 policies with the guardrail on and off, every step
of a 40-step two-phase run (``ycsb-b`` → ``tpcc``) on the simulated DBMS:
the configuration applied, the value and reward recorded, and whether the
step crashed or was rolled back. ``tests/test_online_agent.py`` re-runs the
same script and demands exact equality, so a refactor of the agent loop can
move neither an RNG draw of a policy or the simulator, nor a reward, a crash
imputation or a guardrail decision, unnoticed. Recorded at the commit before
``OnlineTuningAgent.run`` became a ``TuningSession``; the two ``contextual-bo``
cases were re-recorded, alone, when ``ContextualBOTuner`` became a policy over
``ContextualBayesianOptimizer``: it now conditions on every feedback, re-fits
hyperparameters on BO's cadence with a seeded GP, and draws its trust region at
``uniform(0.01, TRUST_RADIUS)``, so its proposals moved from the second or
third model step on. The other ten cases are byte-identical. The two
``contextual-bo`` cases were re-recorded once more, alone, when
``acquisition.trust_region`` began drawing its neighbours in one
``space.neighbor_many`` call (all step sizes first, then the knobs, in
place of one ``space.neighbor`` per neighbour): the RNG draws come in a
different order, and a neighbour that violates a constraint falls back to
the centre instead of being redrawn. The other ten cases stayed
byte-identical. All twelve stayed byte-identical when the agent began to
drive each technique directly (no adapter): the GA learns the ``REWARD``
metric in place of ``unscore(-reward)`` under a ``score`` objective, and
contextual BO is ``ContextualBayesianOptimizer`` in place of its wrapper.

Regenerate (only when a behaviour change is intended and explained)::

    PYTHONPATH=src python tests/data/make_online_goldens.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core import Objective
from repro.core.codec import json_safe
from repro.online import (
    REWARD,
    ActorCriticTuner,
    ContextualBayesianOptimizer,
    GeneticAlgorithmOptimizer,
    Guardrail,
    HybridBanditTuner,
    OnlineResult,
    OnlineTuningAgent,
    QLearningTuner,
    StaticConfigPolicy,
)
from repro.sysim import CloudEnvironment, SimulatedDBMS
from repro.workloads import PhasedTrace, tpcc, ycsb

GOLDEN_PATH = Path(__file__).resolve().parent / "online_goldens.json"

SEED = 5
PHASE = 20
KNOBS = ["buffer_pool_mb", "worker_threads", "work_mem_mb", "checkpoint_interval_s", "flush_method"]
THROUGHPUT = Objective("throughput", minimize=False)

POLICIES = {
    "static": lambda s: StaticConfigPolicy(s.default_configuration()),
    "q-learning": lambda s: QLearningTuner(s, seed=0),
    "actor-critic": lambda s: ActorCriticTuner(s, seed=0),
    "genetic": lambda s: GeneticAlgorithmOptimizer(s, population_size=8, objectives=REWARD, seed=0),
    "hybrid-bandit": lambda s: HybridBanditTuner(s, seed=0),
    "contextual-bo": lambda s: ContextualBayesianOptimizer(s, seed=0, n_candidates=64),
}


#: One row per step: the five knob values in :data:`KNOBS` order, then these.
COLUMNS = [*KNOBS, "value", "reward", "crashed", "rolled_back"]


def run_agent(policy: str, guardrail: bool) -> tuple[OnlineTuningAgent, OnlineResult]:
    """One 40-step run, and the agent that ran it (its ``policy`` is kept)."""
    db = SimulatedDBMS(env=CloudEnvironment(seed=SEED, transient_noise=0.03), seed=SEED)
    agent = OnlineTuningAgent(
        db,
        POLICIES[policy](db.space.subspace(KNOBS)),
        THROUGHPUT,
        guardrail=Guardrail(tolerance=0.3, grace=3) if guardrail else None,
    )
    return agent, agent.run(PhasedTrace([(ycsb("b"), PHASE), (tpcc(80), PHASE)]))


def run_case(policy: str, guardrail: bool) -> list[list[object]]:
    """One 40-step run; one JSON-safe row (see :data:`COLUMNS`) per step."""
    _, result = run_agent(policy, guardrail)
    return [
        [*(json_safe(r.config[k]) for k in KNOBS), r.value, r.reward, r.crashed, r.rolled_back]
        for r in result.records
    ]


def record_goldens() -> dict[str, list[list[object]]]:
    return {
        f"{policy}/guardrail-{'on' if guardrail else 'off'}": run_case(policy, guardrail)
        for policy in POLICIES
        for guardrail in (True, False)
    }


def main() -> None:
    goldens = record_goldens()
    cases = ",\n".join(
        f' {json.dumps(name)}: [\n' + ",\n".join(f"  {json.dumps(row)}" for row in rows) + "\n ]"
        for name, rows in sorted(goldens.items())
    )
    GOLDEN_PATH.write_text("{\n" + cases + "\n}\n")  # one step a line: a diff names the step
    for name, rows in goldens.items():
        print(f"{name}: {sum(r[-2] for r in rows)} crashes, {sum(r[-1] for r in rows)} rollbacks")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
