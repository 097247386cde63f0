"""Coverage for smaller behaviours: logging, telemetry, aggregation edges,
bank gating, duet identity, forest bounds."""

import logging

import numpy as np
import pytest

from repro.benchmarking import DuetBenchmarkRunner, Measurement, aggregate_measurements
from repro.core import LoggingCallback, Objective, Trial, TrialStatus, TuningSession
from repro.exceptions import OptimizerError, ReproError
from repro.optimizers import (
    CostAwareEI,
    PriorBank,
    PriorRun,
    RandomForestRegressor,
    RandomSearchOptimizer,
    scale_config_for_vm,
)
from repro.sysim import QUIET_CLOUD, TELEMETRY_CHANNELS, SimulatedDBMS, generate_telemetry
from repro.workloads import tpcc, tpch, ycsb


class TestLoggingCallback:
    def test_logs_each_trial(self, simple_space, caplog):
        opt = RandomSearchOptimizer(simple_space, Objective("lat"), seed=0)
        with caplog.at_level(logging.INFO, logger="repro.core.callbacks"):
            TuningSession(
                opt, lambda c: 1.5, max_trials=3, callbacks=[LoggingCallback()]
            ).run()
        assert sum("trial=" in r.message for r in caplog.records) == 3

    def test_every_parameter_thins_output(self, simple_space, caplog):
        opt = RandomSearchOptimizer(simple_space, Objective("lat"), seed=0)
        with caplog.at_level(logging.INFO, logger="repro.core.callbacks"):
            TuningSession(
                opt, lambda c: 1.5, max_trials=6, callbacks=[LoggingCallback(every=3)]
            ).run()
        assert sum("trial=" in r.message for r in caplog.records) == 2


class TestTelemetry:
    def test_shape_and_range(self, rng):
        trace = generate_telemetry(ycsb("a"), n_steps=64, rng=rng)
        assert trace.data.shape == (64, 5)
        assert trace.data.min() >= 0.0 and trace.data.max() <= 1.0

    def test_write_heavy_workload_has_io_bursts(self, rng):
        writey = generate_telemetry(ycsb("a"), n_steps=128, noise=0.0, rng=rng)
        ready = generate_telemetry(ycsb("c"), n_steps=128, noise=0.0, rng=rng)
        # Burst spikes raise the write-heavy trace's disk-IO variance.
        disk_io = TELEMETRY_CHANNELS.index("disk_io")
        assert writey.data[:, disk_io].std() > ready.data[:, disk_io].std()

    def test_validation(self, rng):
        with pytest.raises(ReproError):
            generate_telemetry(ycsb("a"), n_steps=4, rng=rng)
        with pytest.raises(ReproError):
            generate_telemetry(ycsb("a"), noise=-0.1, rng=rng)


class TestAggregationEdges:
    def test_extras_union(self):
        a = Measurement(100, 1, 1, 2, 3, extra={"only_a": 1.0, "both": 2.0})
        b = Measurement(100, 1, 1, 2, 3, extra={"both": 4.0})
        agg = aggregate_measurements([a, b])
        assert agg.extra["both"] == 3.0
        assert agg.extra["only_a"] == 1.0

    def test_incumbent_curve_maximize(self, simple_space):
        opt = RandomSearchOptimizer(simple_space, Objective("tput", minimize=False), seed=0)
        for v in (10.0, 30.0, 20.0):
            opt.observe(opt.suggest(1)[0], v)
        assert list(opt.history.incumbent_curve()) == [10.0, 30.0, 30.0]


class TestPriorBankGating:
    def test_dissimilar_run_contributes_only_failures(self, simple_space):
        good = Trial(0, simple_space.make({"x": 0.3}), TrialStatus.SUCCEEDED, {"score": 1.0})
        crash = Trial(1, simple_space.make({"x": 0.9}), TrialStatus.FAILED, {})
        bank = PriorBank()
        bank.add(PriorRun(tpch(10), [good, crash]))
        bank.add(PriorRun(ycsb("a"), []))  # nearest to the query, but empty
        opt = RandomSearchOptimizer(simple_space, Objective("score"), seed=0)
        # Query resembles ycsb-a; tpch is far away -> gated.
        n = bank.warm_start(opt, ycsb("b"), k=2, max_distance=0.5)
        # tpch's good trial must NOT transfer; only its crash may.
        assert all(not t.ok for t in opt.history.trials)


class TestDuetIdentity:
    def test_identical_configs_have_ratio_one(self):
        db = SimulatedDBMS(env=QUIET_CLOUD(seed=0), seed=0)
        duet = DuetBenchmarkRunner(db, tpcc(50), Objective("throughput", minimize=False))
        outcome = duet.run_pair(db.space.default_configuration())
        assert outcome.relative == pytest.approx(1.0)


class TestForestBounds:
    def test_predictions_within_training_range(self, rng):
        """Trees average training targets: predictions cannot extrapolate."""
        X = rng.random((60, 3))
        y = rng.uniform(5.0, 9.0, 60)
        rf = RandomForestRegressor(n_trees=12, seed=0).fit(X, y)
        preds = rf.predict(rng.random((40, 3)))
        assert preds.min() >= 5.0 - 1e-9
        assert preds.max() <= 9.0 + 1e-9


class TestCostAwareEIConstructorCosts:
    def test_costs_from_constructor(self):
        acq = CostAwareEI(xi=0.0, costs=np.array([1.0, 4.0]))
        scores = acq(np.array([0.0, 0.0]), np.array([1.0, 1.0]), 1.0)
        assert scores[0] == pytest.approx(4.0 * scores[1])


class TestVMScalingEdges:
    def test_categorical_in_scaling_dict_is_skipped(self):
        db = SimulatedDBMS(env=QUIET_CLOUD(seed=0), seed=0)
        cfg = db.space.make({"flush_method": "O_DIRECT"})
        out = scale_config_for_vm(cfg, db.space, 2.0, 2.0, scaling={"flush_method": "memory"})
        assert out["flush_method"] == "O_DIRECT"

    def test_invalid_ratio(self):
        db = SimulatedDBMS(env=QUIET_CLOUD(seed=0), seed=0)
        with pytest.raises(OptimizerError):
            scale_config_for_vm(db.space.default_configuration(), db.space, 0.0, 1.0)
