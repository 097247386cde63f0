"""Unit tests for duet benchmarking and the TUNA runner."""

import numpy as np
import pytest

from repro.benchmarking import DuetBenchmarkRunner, TunaRunner
from repro.core import Objective
from repro.exceptions import ReproError, SystemCrashError
from repro.sysim import CloudEnvironment, SimulatedDBMS
from repro.workloads import tpcc


def noisy_db(seed=0, noise=0.15):
    env = CloudEnvironment(
        seed=seed,
        transient_noise=noise,
        load_volatility=0.2,
        machine_spread=0.08,
        outlier_fraction=0.2,
    )
    return SimulatedDBMS(env=env, seed=seed)


OBJ = Objective("throughput", minimize=False)


class TestDuet:
    def test_relative_score_is_stable(self):
        """The duet's whole point: the ratio cancels shared noise."""
        db = noisy_db()
        runner = DuetBenchmarkRunner(db, tpcc(50), OBJ)
        candidate = db.space.make({"buffer_pool_mb": 4096})
        ratios = [runner.run_pair(candidate).relative for _ in range(15)]
        absolutes = [
            db.run(tpcc(50), config=candidate).throughput for _ in range(15)
        ]
        cv_ratio = np.std(ratios) / np.mean(ratios)
        cv_abs = np.std(absolutes) / np.mean(absolutes)
        assert cv_ratio < cv_abs / 2

    def test_ratio_detects_improvement(self):
        db = noisy_db()
        runner = DuetBenchmarkRunner(db, tpcc(50), OBJ)
        better = db.space.make({"buffer_pool_mb": 8192, "worker_threads": 64})
        ratios = [runner.run_pair(better).relative for _ in range(5)]
        assert np.mean(ratios) > 1.5  # clearly better than the default

    def test_evaluator_costs_double(self):
        db = noisy_db()
        runner = DuetBenchmarkRunner(db, tpcc(50), OBJ)
        assert runner(db.space.default_configuration())[1] == 120.0  # two runs of REFERENCE_S
        assert runner(db.space.default_configuration(), fidelity=30.0)[1] == 60.0

    def test_infeasible_candidate_crashes(self):
        db = noisy_db()
        runner = DuetBenchmarkRunner(db, tpcc(50), OBJ)
        bad = db.space.make(
            {"wal_buffer_mb": 512, "buffer_pool_mb": 128}, check_constraints=False
        )
        with pytest.raises(SystemCrashError):
            runner.run_pair(bad)

    def test_calibration_on_metric_scale(self):
        db = noisy_db()
        runner = DuetBenchmarkRunner(db, tpcc(50), OBJ)
        metrics, _ = runner(db.space.default_configuration())
        # Default vs default: value should sit near the calibrated scale.
        quiet_value = runner._calibrate()
        assert metrics["throughput"] == pytest.approx(quiet_value, rel=0.5)


class TestTuna:
    def make_runner(self, seed=0, rungs=(1, 3)):
        db = noisy_db(seed=seed)
        machines = db.env.allocate_pool(6)
        return db, TunaRunner(db, tpcc(50), OBJ, machines, rungs=rungs, seed=seed)

    def test_evaluator_returns_value_and_cost(self):
        db, tuna = self.make_runner()
        metrics, cost = tuna(db.space.default_configuration())
        assert metrics["throughput"] > 0
        assert cost >= 60.0

    def test_promising_configs_get_more_machines(self):
        db, tuna = self.make_runner()
        # First config sets the incumbent and is promoted to the wide rung.
        tuna(db.space.default_configuration())
        n_first = len(tuna.observations)
        assert n_first == 3  # promoted through both rungs
        # A clearly terrible config should stop at rung one.
        bad = db.space.make({"worker_threads": 1, "buffer_pool_mb": 64})
        tuna(bad)
        assert len(tuna.observations) - n_first == 1

    def test_load_model_learns_negative_slope(self):
        """Higher machine load ⇒ lower throughput: the sideband model must
        pick up that relationship from raw samples."""
        db, tuna = self.make_runner(rungs=(3, 6))
        for _ in range(6):
            tuna(db.space.default_configuration())
        assert tuna.load_model.slope < 0

    def test_variance_reduction_vs_single_run(self):
        db, tuna = self.make_runner(rungs=(3, 3))
        cfg = db.space.make({"buffer_pool_mb": 2048})
        tuna_values = [tuna(cfg)[0]["throughput"] for _ in range(10)]
        raw_values = [db.run(tpcc(50), config=cfg).throughput for _ in range(10)]
        assert np.std(tuna_values) < np.std(raw_values) * 1.1

    def test_validation(self):
        db = noisy_db()
        machines = db.env.allocate_pool(2)
        with pytest.raises(ReproError):
            TunaRunner(db, tpcc(10), OBJ, [])
        with pytest.raises(ReproError):
            TunaRunner(db, tpcc(10), OBJ, machines, rungs=(3, 1))
        with pytest.raises(ReproError):
            TunaRunner(db, tpcc(10), OBJ, machines, rungs=(1, 5))
