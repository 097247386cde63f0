"""E20 — the Spark tuning game + synthetic benchmark generation
(slides 14 and 92).

(a) **The game**: "manually optimize TPC-H Q1 runtime, limit 100 tries."
    The 'human' is a greedy one-knob-at-a-time coordinate descent — a
    faithful model of how people play (tweak executors, then memory, then
    partitions…). The autotuner (BO) plays the same 100-try budget.
    Shape: the autotuner matches or beats the human, because the knobs
    interact (memory-per-core changes when cores change) and greedy
    single-knob reasoning stalls.

(b) **Synthetic benchmarks** (Stitcher-like): given only a production
    workload's aggregate signature, synthesize a mixture of standard
    benchmarks that mimics it, tune offline on the synthetic mix, and
    deploy the config to production. Shape: the synthetic-tuned config
    recovers most of the direct-tuning benefit without ever touching
    production data.
"""

import numpy as np

from repro.core import TuningSession
from repro.exceptions import SystemCrashError
from repro.optimizers import BayesianOptimizer
from repro.space.params import CategoricalParameter
from repro.sysim import CloudEnvironment, QUIET_CLOUD, SimulatedDBMS, SparkCluster
from repro.workload_id import synthesize_benchmark
from repro.workloads import tpcc, tpch, ycsb

from benchmarks.conftest import THROUGHPUT

TRIES = 100


def _human_player(spark, evaluate, budget=TRIES, seed=0):
    """Greedy coordinate descent: nudge one knob at a time, keep what helps."""
    rng = np.random.default_rng(seed)
    space = spark.space
    current = space.default_configuration()
    try:
        best_val, _ = evaluate(current)
    except SystemCrashError:
        best_val = float("inf")
    tries = 1
    while tries < budget:
        improved = False
        for name in space.names:
            if tries >= budget:
                break
            param = space[name]
            values = current.as_dict()
            if isinstance(param, CategoricalParameter):
                values[name] = param.neighbor(values[name], rng)
            else:
                direction = 1 if rng.random() < 0.5 else -1
                u = param.to_unit(values[name]) + direction * 0.2
                values[name] = param.from_unit(float(np.clip(u, 0, 1)))
            try:
                candidate = space.make(values)
                value, _ = evaluate(candidate)
            except SystemCrashError:
                tries += 1
                continue
            tries += 1
            if value < best_val:
                best_val = value
                current = candidate
                improved = True
        if not improved and tries < budget:
            # Humans reset to defaults when stuck and try a new direction.
            current = space.sample(rng)
            try:
                value, _ = evaluate(current)
                tries += 1
                best_val = min(best_val, value)
            except SystemCrashError:
                tries += 1
    return best_val


def _autotuner(spark, evaluate, seed):
    opt = BayesianOptimizer(
        spark.space, n_init=10, objectives=__import__("repro").Objective("runtime_s"),
        seed=seed, n_candidates=128,
    )
    def wrapped(config):
        value, cost = evaluate(config)
        return {"runtime_s": value}, cost
    res = TuningSession(opt, wrapped, max_trials=TRIES).run()
    return res.best_value


def test_e20_spark_game(table):
    def experiment():
        rows = []
        for seed in range(2):
            spark = SparkCluster(n_nodes=10, env=CloudEnvironment(seed=seed, transient_noise=0.03), seed=seed)
            evaluate = spark.q1_game_evaluator(scale_factor=10.0)
            default_runtime, _ = evaluate(spark.space.default_configuration())
            human = _human_player(spark, evaluate, seed=seed)
            spark2 = SparkCluster(n_nodes=10, env=CloudEnvironment(seed=seed, transient_noise=0.03), seed=seed)
            bot = _autotuner(spark2, spark2.q1_game_evaluator(scale_factor=10.0), seed)
            rows.append((seed, default_runtime, human, bot))
        return rows

    rows = experiment()
    table(
        f"E20a (slide 14) — Spark tuning game: TPC-H Q1 runtime, {TRIES} tries",
        ["seed", "default (s)", "human greedy (s)", "autotuner (s)"],
        rows,
    )
    human_mean = float(np.mean([r[2] for r in rows]))
    bot_mean = float(np.mean([r[3] for r in rows]))
    default_mean = float(np.mean([r[1] for r in rows]))
    assert bot_mean <= human_mean * 1.05  # the tuner matches/beats the human
    assert bot_mean < default_mean * 0.6  # and crushes the default


def test_e20_synthetic_benchmark(table):
    def experiment():
        # A library with scale variants so the mixture can match volume
        # characteristics, not just the operation mix.
        library = [ycsb("a"), ycsb("b"), ycsb("c"), tpcc(50), tpcc(150), tpch(10)]
        rng = np.random.default_rng(3)
        production = tpcc(120).blend(ycsb("b"), 0.25).perturbed(rng, 0.03)
        synthetic, weights = synthesize_benchmark(production, library)

        db = SimulatedDBMS(env=QUIET_CLOUD(seed=4), seed=4)

        def tune_on(workload, seed):
            opt = BayesianOptimizer(db.space, n_init=8, objectives=THROUGHPUT, seed=seed, n_candidates=128)
            return TuningSession(opt, db.evaluator(workload, "throughput"), max_trials=30).run().best_config

        synth_cfg = tune_on(synthetic, 0)
        direct_cfg = tune_on(production, 1)
        results = {
            "default": db.run(production, config=db.space.default_configuration()).throughput,
            "tuned on synthetic mix": db.run(production, config=synth_cfg).throughput,
            "tuned on production (oracle)": db.run(production, config=direct_cfg).throughput,
        }
        mix = {w.name: round(float(wt), 3) for w, wt in zip(library, weights) if wt > 0}
        return results, mix

    results, mix = experiment()
    table(
        "E20b (slide 92) — synthetic benchmark generation: production throughput",
        ["config source", "throughput on production"],
        list(results.items()),
    )
    table(
        "E20b — synthesized mixture",
        ["component", "weight"],
        list(mix.items()),
    )
    # Shape: synthetic-tuned recovers most of the oracle's benefit without
    # touching production ("can't replay their workload, can't look at it").
    assert results["tuned on synthetic mix"] > results["default"] * 2
    assert results["tuned on synthetic mix"] >= results["tuned on production (oracle)"] * 0.6
