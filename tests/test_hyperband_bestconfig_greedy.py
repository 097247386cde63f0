"""Unit tests for Hyperband, BestConfig-style search, greedy online tuning,
and VM-size config scaling."""

import numpy as np
import pytest

from repro.cli import main
from repro.core import Objective, TrialReport, TuningSession
from repro.exceptions import OptimizerError
from repro.online import GreedyOnlineTuner
from repro.optimizers import (
    BestConfigOptimizer,
    DBMS_VM_SCALING,
    HyperbandOptimizer,
    scale_config_for_vm,
)
from repro.space import ConfigurationSpace, FloatParameter
from repro.sysim import QUIET_CLOUD, SimulatedDBMS

from .conftest import quadratic_evaluator


def bowl_space(n=2):
    s = ConfigurationSpace("hb", seed=0)
    for i in range(n):
        s.add(FloatParameter(f"x{i}", 0.0, 1.0))
    return s


class TestHyperband:
    @staticmethod
    def noisy_objective(rng):
        def evaluate(config, budget):
            true = sum((config[k] - 0.3) ** 2 for k in config)
            return true + rng.normal(0, 0.5 / budget)

        return evaluate

    @staticmethod
    def drive(space, evaluate, n_trials, minimize=True, **options):
        """Ask/tell ``n_trials`` through a session, each at its suggested budget."""
        opt = HyperbandOptimizer(space, Objective("score", minimize=minimize), seed=0, **options)
        session = TuningSession(opt, None, max_trials=n_trials)
        while not session.is_complete:
            (sugg,) = session.ask()
            config = space.make(sugg.config)
            session.tell(
                TrialReport(config=sugg.config, metrics={"score": evaluate(config, sugg.fidelity)},
                            cost=sugg.fidelity, ask_id=sugg.ask_id)
            )
        return opt

    def test_finds_good_point(self, rng):
        opt = self.drive(bowl_space(2), self.noisy_objective(rng), 69, max_budget=27.0)
        best = opt.best_config()
        assert sum((best[k] - 0.3) ** 2 for k in best) < 0.25
        assert opt.history.total_cost() > 0

    def test_bracket_count(self, rng):
        opt = self.drive(bowl_space(1), self.noisy_objective(rng), 69, max_budget=27.0)
        budgets = [t.fidelity for t in opt.history]
        # s_max = log3(27) = 3 -> brackets s=3..0 -> 4 brackets, 69 trials in all.
        starts = [0] + [k for k in range(1, len(budgets)) if budgets[k] < budgets[k - 1]]
        assert [budgets[k] for k in starts] == [1.0, 3.0, 9.0]  # s = 0 starts at 27 without a drop
        assert budgets[-4:] == [27.0] * 4 and budgets[-5] == 27.0
        opt.suggest(1)
        assert opt.suggested_fidelity(opt.n_suggested - 1) == 1.0  # then the cycle repeats

    def test_early_brackets_try_more_configs(self, rng):
        opt = self.drive(bowl_space(1), self.noisy_objective(rng), 69, max_budget=27.0)
        budgets = [t.fidelity for t in opt.history]
        # First rungs: 27 configs at budget 1 (s=3), 4 at budget 27 (s=0).
        assert budgets[:27] == [1.0] * 27 and budgets[27] == 3.0
        assert budgets[-4:] == [27.0] * 4

    def test_maximize_mode(self, rng):
        opt = self.drive(bowl_space(1), lambda c, b: c["x0"], 13, minimize=False, max_budget=9.0)
        assert opt.best_config()["x0"] > 0.7

    def test_state_digest_covers_the_rungs(self):
        """Replay checks a Hyperband session through its brackets too: the
        digest's ``model`` part moves when a rung result is recorded, and a
        trial that joins no rung (here: told as foreign) diverges from one
        that joins it although their histories are equal."""

        def told(suggestion):
            opt = HyperbandOptimizer(bowl_space(1), Objective("score"), seed=0, max_budget=9.0)
            (config,) = opt.suggest()
            before = opt.state_digest_parts()
            opt.observe(config, 0.5, fidelity=1.0, suggestion=suggestion)
            return before, opt.state_digest_parts()

        before, joined = told(0)
        _, foreign = told(-1)
        assert joined["model"] != before["model"]
        assert joined["history"] == foreign["history"] and joined["model"] != foreign["model"]

    def test_validation(self, rng):
        with pytest.raises(OptimizerError):
            HyperbandOptimizer(bowl_space(1), max_budget=1.0)
        # run() drives Hyperband to budget: each evaluation receives its
        # rung's budget (the memo of the suggestion it answers) as its fidelity.
        opt = HyperbandOptimizer(bowl_space(1), max_budget=9.0, seed=0)
        received, rungs, on_observe = [], [], opt._on_observe

        def evaluate(config, fidelity=None):
            received.append(fidelity)
            return (config["x0"] - 0.3) ** 2

        def spy(trial, memo):
            rungs.append(memo[0])
            on_observe(trial, memo)

        opt._on_observe = spy
        result = TuningSession(opt, evaluate, max_trials=30).run()
        assert result.n_trials == 30
        assert received == rungs == [t.fidelity for t in opt.history]
        assert set(received) == {1.0, 3.0, 9.0}


    def test_the_result_is_read_at_the_top_budget(self):
        """A short run flatters: scores shrink with the budget's inverse, so
        the luckiest trial is at budget 1. The result, ``best_config`` and
        ``History.best`` (which the model-based incumbent reads) answer apart."""
        opt = HyperbandOptimizer(bowl_space(1), Objective("score"), seed=0, max_budget=9.0)
        result = TuningSession(opt, lambda config, fidelity: config["x0"] - 1.0 / fidelity, max_trials=30).run()
        best = min((t for t in opt.history if t.fidelity == 9.0), key=lambda t: t.metric("score"))
        assert (result.best_value, result.best_config) == (best.metric("score"), best.config)
        assert opt.best_config() == best.config
        assert opt.history.best().fidelity == 1.0

    def test_cli_runs_hyperband_on_a_target(self, capsys):
        """A built-in target's evaluator takes a fidelity (the run length), so
        ``tune`` and ``compare`` run Hyperband like any other optimizer."""
        assert main(["tune", "--system", "redis", "--optimizer", "hyperband", "--trials", "12"]) == 0
        out, _ = capsys.readouterr()
        assert "tune redis/" in out and "best configuration:" in out
        assert main(["compare", "--system", "redis", "--optimizers", "random,hyperband", "--trials", "6",
                     "--seeds", "1"]) == 0
        out, _ = capsys.readouterr()
        assert "hyperband/seed0" in out and "random/seed0" in out


class TestBestConfig:
    def test_converges_on_bowl(self):
        opt = BestConfigOptimizer(bowl_space(2), round_size=10, seed=0)
        res = TuningSession(opt, quadratic_evaluator(), max_trials=80).run()
        assert res.best_value < 0.03

    def test_alternates_diverge_and_bound(self):
        opt = BestConfigOptimizer(bowl_space(2), round_size=6, seed=0)
        TuningSession(opt, quadratic_evaluator(), max_trials=30).run()
        assert opt._round >= 4
        assert opt._radius < 0.5  # bound-and-search shrank the box

    def test_respects_constraints(self, conditional_space):
        opt = BestConfigOptimizer(conditional_space, round_size=6, seed=0)
        for cfg in opt.suggest(20):
            assert conditional_space.is_feasible(cfg)

    def test_lhs_round_is_stratified(self):
        opt = BestConfigOptimizer(bowl_space(1), round_size=10, seed=0)
        configs = opt.suggest(10)
        xs = sorted(c["x0"] for c in configs)
        # LHS: exactly one sample per decile.
        bins = np.floor(np.array(xs) * 10).astype(int)
        assert len(set(bins.clip(0, 9))) == 10

    def test_validation(self):
        with pytest.raises(OptimizerError):
            BestConfigOptimizer(bowl_space(1), round_size=1)


class TestGreedyOnlineTuner:
    def test_climbs_a_hill(self):
        space = bowl_space(2)
        policy = GreedyOnlineTuner(space, seed=0, step=0.15)
        for _ in range(200):
            cfg = policy.suggest()[0]
            policy.observe(cfg, {"reward": -sum((cfg[k] - 0.3) ** 2 for k in space.names)})
        final = policy.current
        assert sum((final[k] - 0.3) ** 2 for k in space.names) < 0.1
        assert policy.moves_adopted > 0

    def test_reverts_bad_moves(self):
        space = bowl_space(1)
        policy = GreedyOnlineTuner(space, seed=0)
        # Reward a single sharp optimum at the default (0.5): every move is bad.
        for _ in range(60):
            cfg = policy.suggest()[0]
            policy.observe(cfg, {"reward": 1.0 if abs(cfg["x0"] - 0.5) < 1e-9 else -1.0})
        assert policy.current["x0"] == 0.5
        assert policy.moves_reverted > policy.moves_adopted

    def test_step_grows_on_plateau(self):
        space = bowl_space(1)
        policy = GreedyOnlineTuner(space, seed=0, step=0.05, patience=3)
        for _ in range(40):
            cfg = policy.suggest()[0]
            policy.observe(cfg, {"reward": 0.0 if cfg == policy.current else -1.0})
        assert policy.step > 0.05

    def test_validation(self):
        with pytest.raises(OptimizerError):
            GreedyOnlineTuner(bowl_space(1), step=0.0)
        with pytest.raises(OptimizerError):
            GreedyOnlineTuner(bowl_space(1), knobs=["nope"])


class TestVMScaling:
    def test_memory_knobs_scale_with_ram(self):
        db = SimulatedDBMS(env=QUIET_CLOUD("large", seed=0), seed=0)  # 32 GB
        tuned = db.space.make({"buffer_pool_mb": 16_384, "worker_threads": 32, "work_mem_mb": 64})
        # Move to a box with half the RAM and half the cores.
        scaled = scale_config_for_vm(tuned, db.space, ram_ratio=0.5, cpu_ratio=0.5)
        assert scaled["buffer_pool_mb"] == pytest.approx(8192, rel=0.02)
        assert scaled["worker_threads"] == pytest.approx(16, rel=0.1)
        # per-worker memory: ram/cpu ratio = 1 -> unchanged.
        assert scaled["work_mem_mb"] == 64

    def test_per_worker_memory_uses_ratio(self):
        db = SimulatedDBMS(env=QUIET_CLOUD(seed=0), seed=0)
        tuned = db.space.make({"work_mem_mb": 64})
        # 2x RAM, same cores: each worker can use twice the memory.
        scaled = scale_config_for_vm(tuned, db.space, ram_ratio=2.0, cpu_ratio=1.0)
        assert scaled["work_mem_mb"] == pytest.approx(128, rel=0.05)

    def test_clipping_to_domain(self):
        db = SimulatedDBMS(env=QUIET_CLOUD(seed=0), seed=0)
        tuned = db.space.make({"worker_threads": 200})
        scaled = scale_config_for_vm(tuned, db.space, ram_ratio=1.0, cpu_ratio=4.0)
        assert scaled["worker_threads"] <= 256  # clipped into the domain

    def test_unknown_kind_rejected(self):
        db = SimulatedDBMS(env=QUIET_CLOUD(seed=0), seed=0)
        with pytest.raises(OptimizerError):
            scale_config_for_vm(
                db.space.default_configuration(), db.space, 1.0, 1.0,
                scaling={"buffer_pool_mb": "weird"},
            )

    def test_scaled_config_still_performs(self):
        """The slide's end-to-end story: tune big, deploy scaled on small."""
        from repro.workloads import tpcc

        big = SimulatedDBMS(env=QUIET_CLOUD("large", seed=1), seed=1)
        tuned = big.space.make(
            {"buffer_pool_mb": 16_384, "worker_threads": 64,
             "flush_method": "O_DIRECT_NO_FSYNC", "work_mem_mb": 64}
        )
        small = SimulatedDBMS(env=QUIET_CLOUD("small", seed=1), seed=1)  # 8 GB
        scaled = scale_config_for_vm(tuned, small.space, ram_ratio=0.25, cpu_ratio=0.25)
        w = tpcc(50)
        default_tput = small.run(w, config=small.space.default_configuration()).throughput
        scaled_tput = small.run(w, config=scaled).throughput
        assert scaled_tput > default_tput * 1.5  # transfers usefully
        assert DBMS_VM_SCALING["buffer_pool_mb"] == "memory"
