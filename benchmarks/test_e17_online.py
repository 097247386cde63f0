"""E17 — online tuning algorithms under workload shift (slides 79–84).

An agent tunes the production DBMS live while the workload flips from
read-mostly YCSB-B to write-heavy TPC-C mid-trace. Policies: Q-learning
(CDBTune/QTune's family), actor-critic, HUNTER-style GA, OPPerTune-style
hybrid bandits, OnlineTune-style contextual BO — against the static
default. Shape: adaptive policies beat the static config overall and
*recover after the shift*; the guardrail cuts the number of severe
regression steps an aggressive policy inflicts.

AutoSteer-style greedy search and the proactive (forecast-banded) tuner are
powered rows: the per-seed ratio of their mean throughput to static
default's over :data:`POWERED_SEEDS`, guardrail on, with its 90 % interval.
"""

import numpy as np

from repro.online import (
    REWARD,
    ActorCriticTuner,
    ContextualBayesianOptimizer,
    GeneticAlgorithmOptimizer,
    GreedyOnlineTuner,
    Guardrail,
    HybridBanditTuner,
    OnlineTuningAgent,
    ProactiveForecastTuner,
    QLearningTuner,
    StaticConfigPolicy,
)
from repro.sysim import CloudEnvironment, SimulatedDBMS
from repro.workloads import PhasedTrace, tpcc, ycsb

from benchmarks.conftest import POWERED_SEEDS, THROUGHPUT, paired_ratio_interval

PHASE = 50
KNOBS = ["buffer_pool_mb", "worker_threads", "work_mem_mb", "checkpoint_interval_s", "flush_method"]


def _trace():
    return PhasedTrace([(ycsb("b"), PHASE), (tpcc(80), PHASE)])


def _run(make_policy, seed, guardrail=True):
    db = SimulatedDBMS(env=CloudEnvironment(seed=seed, transient_noise=0.03), seed=seed)
    sub = db.space.subspace(KNOBS)
    agent = OnlineTuningAgent(
        db,
        make_policy(sub),
        THROUGHPUT,
        guardrail=Guardrail(tolerance=0.3) if guardrail else None,
    )
    return agent.run(_trace())


POLICIES = {
    "static-default": lambda s: StaticConfigPolicy(s.default_configuration()),
    "q-learning": lambda s: QLearningTuner(s, seed=0),
    "actor-critic": lambda s: ActorCriticTuner(s, seed=0),
    "genetic (HUNTER)": lambda s: GeneticAlgorithmOptimizer(s, population_size=8, objectives=REWARD, seed=0),
    "hybrid bandit (OPPerTune)": lambda s: HybridBanditTuner(s, seed=0),
    "contextual BO (OnlineTune)": lambda s: ContextualBayesianOptimizer(s, seed=0, n_candidates=64),
}
#: Powered rows: the load signal's period is the trace's length, two phases.
POWERED = {
    "greedy (AutoSteer)": lambda s: GreedyOnlineTuner(s, seed=0),
    "proactive forecast": lambda s: ProactiveForecastTuner(s, period=2 * PHASE, seed=0),
}


def test_e17_online_policies(table):
    def experiment():
        out = {}
        for name, make in POLICIES.items():
            results = [_run(make, seed) for seed in range(2)]
            mean_all = float(np.mean([r.values().mean() for r in results]))
            post_shift = float(np.mean([r.values()[-15:].mean() for r in results]))
            crashes = float(np.mean([sum(rec.crashed for rec in r.records) for r in results]))
            out[name] = (mean_all, post_shift, crashes)
        # Guardrail ablation on the most aggressive policy.
        guard_on = _run(POLICIES["actor-critic"], 5, guardrail=True)
        guard_off = _run(POLICIES["actor-critic"], 5, guardrail=False)
        baseline = _run(POLICIES["static-default"], 5, guardrail=False).values()
        reg_on = guard_on.regression_steps(baseline, tolerance=0.3, minimize=False)
        reg_off = guard_off.regression_steps(baseline, tolerance=0.3, minimize=False)
        return out, reg_on, reg_off

    results, reg_on, reg_off = experiment()
    rows = [(k, a, p, c) for k, (a, p, c) in results.items()]
    table(
        f"E17 (slides 79-84) — online policies, ycsb-b -> tpcc shift at t={PHASE}",
        ["policy", "mean tput", "post-shift tput (last 15)", "crashes"],
        rows,
    )
    table(
        "E17 — guardrail ablation (actor-critic)",
        ["guardrail", "steps >30% below static baseline"],
        [("on", reg_on), ("off", reg_off)],
    )
    static = results["static-default"][0]
    adaptive_best = max(v[0] for k, v in results.items() if k != "static-default")
    # Shape: the best adaptive policy clearly beats static overall...
    assert adaptive_best > static * 1.3
    # ...most adaptive policies beat static...
    n_beating = sum(v[0] > static for k, v in results.items() if k != "static-default")
    assert n_beating >= 3
    # ...and the guardrail does not increase severe regressions.
    assert reg_on <= reg_off


def test_e17_powered_greedy_and_proactive(table):
    static = [_run(POLICIES["static-default"], seed).values().mean() for seed in POWERED_SEEDS]
    intervals = {
        name: paired_ratio_interval([_run(make, seed).values().mean() for seed in POWERED_SEEDS], static)
        for name, make in POWERED.items()
    }
    table(
        f"E17 — mean tput / static-default, paired over {len(POWERED_SEEDS)} seeds, guardrail on",
        ["policy", "mean ratio", "90% interval low", "90% interval high"],
        [(name, *interval) for name, interval in intervals.items()],
    )
    # Each clearly beats static (E17's own factor), on the interval's lower end.
    for name, (_, low, _) in intervals.items():
        assert low >= 1.3, name
