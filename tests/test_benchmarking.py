"""Unit tests for measurements, benchmark runner, and early abort."""

import numpy as np
import pytest

from repro.benchmarking import (
    BenchmarkRunner,
    EarlyAbortPolicy,
    Measurement,
    aggregate_measurements,
)
from repro.core import Objective, TuningSession
from repro.exceptions import ReproError, TrialAbortedError
from repro.optimizers import RandomSearchOptimizer
from repro.sysim import QUIET_CLOUD, CloudEnvironment, SimulatedDBMS
from repro.workloads import tpcc


def meas(tput=100.0, lat=1.0, elapsed=60.0, machine="m0", **extra):
    return Measurement(
        throughput=tput,
        latency_avg=lat,
        latency_p50=lat * 0.85,
        latency_p95=lat * 2,
        latency_p99=lat * 3,
        elapsed_s=elapsed,
        machine_id=machine,
        extra=extra,
    )


class TestMeasurement:
    def test_metrics_flattened(self):
        m = meas(queue_len=4.0)
        out = m.metrics()
        assert out["throughput"] == 100.0
        assert out["queue_len"] == 4.0

    def test_metric_lookup_error(self):
        with pytest.raises(ReproError):
            meas().metric("nope")

    def test_validation(self):
        with pytest.raises(ReproError):
            meas(tput=-1.0)
        with pytest.raises(ReproError):
            meas(lat=-0.5)
        with pytest.raises(ReproError):
            meas(elapsed=0.0)


class TestAggregation:
    def test_median_default(self):
        agg = aggregate_measurements([meas(tput=t) for t in (10, 100, 1000)])
        assert agg.throughput == 100.0

    def test_mean(self):
        agg = aggregate_measurements([meas(tput=t) for t in (10, 20)], how="mean")
        assert agg.throughput == 15.0

    def test_elapsed_sums(self):
        agg = aggregate_measurements([meas(elapsed=30), meas(elapsed=40)])
        assert agg.elapsed_s == 70.0

    def test_machine_labels(self):
        same = aggregate_measurements([meas(machine="a"), meas(machine="a")])
        assert same.machine_id == "a"
        mixed = aggregate_measurements([meas(machine="a"), meas(machine="b")])
        assert mixed.machine_id == "multiple"

    def test_validation(self):
        with pytest.raises(ReproError):
            aggregate_measurements([])
        with pytest.raises(ReproError):
            aggregate_measurements([meas()], how="mode")


class TestEarlyAbort:
    def test_aborts_past_bound(self):
        policy = EarlyAbortPolicy(factor=2.0)
        assert policy.check(10.0, "runtime") == 10.0
        assert policy.check(15.0, "runtime") == 15.0  # within 2x of 10
        with pytest.raises(TrialAbortedError) as err:
            policy.check(25.0, "runtime")
        assert err.value.censored_metrics == {"runtime": 20.0}
        assert err.value.cost == 20.0
        assert policy.aborts == 1
        assert policy.saved_cost == pytest.approx(5.0)

    def test_bound_tightens_with_better_best(self):
        policy = EarlyAbortPolicy(factor=2.0)
        policy.check(10.0, "t")
        policy.check(4.0, "t")
        assert policy.bound() == pytest.approx(8.0)

    def test_factor_validation(self):
        with pytest.raises(ReproError):
            EarlyAbortPolicy(factor=1.0)

    def test_abort_saves_cost_in_session(self):
        """The slide's pitch: abort cheaply, keep tuning."""
        from repro.space import ConfigurationSpace, FloatParameter

        space = ConfigurationSpace("t", seed=0)
        space.add(FloatParameter("x", 0.0, 1.0))
        policy = EarlyAbortPolicy(factor=1.5)

        def runtime_eval(config):
            runtime = 10.0 + 100.0 * config["x"]
            value = policy.check(runtime, "runtime")
            return {"runtime": value}, value

        # Intercept aborts to report censored cost, mimicking BenchmarkRunner.
        opt = RandomSearchOptimizer(space, Objective("runtime"), seed=0)
        res = TuningSession(opt, runtime_eval, max_trials=30).run()
        assert policy.aborts > 5
        # Aborted trials were capped at the bound, so total cost is less
        # than the sum of true runtimes.
        assert policy.saved_cost > 0


class TestBenchmarkRunner:
    def test_repeats_reduce_variance(self):
        def spread(repeats):
            env = CloudEnvironment(seed=1, transient_noise=0.15, load_volatility=0.0, machine_spread=0.0)
            db = SimulatedDBMS(env=env, seed=1)
            runner = BenchmarkRunner(
                db, tpcc(50), Objective("throughput", minimize=False), repeats=repeats
            )
            cfg = db.space.default_configuration()
            values = [runner(cfg)[0]["throughput"] for _ in range(12)]
            return np.std(values) / np.mean(values)

        assert spread(5) < spread(1)

    def test_repeats_cost_more(self):
        db = SimulatedDBMS(env=QUIET_CLOUD(seed=0), seed=0)
        runner = BenchmarkRunner(db, tpcc(50), Objective("throughput", minimize=False), repeats=3)
        _, cost = runner(db.space.default_configuration())
        assert cost == pytest.approx(180.0)  # 3 x 60s

    def test_a_fidelity_is_the_run_length(self):
        """``runner(config, fidelity=s)`` runs each repeat for ``s`` seconds:
        it bills ``repeats × s`` and a longer run is steadier."""
        def spread_and_cost(seconds):
            env = CloudEnvironment(seed=1, transient_noise=0.15, load_volatility=0.0, machine_spread=0.0)
            db = SimulatedDBMS(env=env, seed=1)
            runner = BenchmarkRunner(db, tpcc(50), Objective("throughput", minimize=False), repeats=3)
            cfg = db.space.default_configuration()
            runs = [runner(cfg, fidelity=seconds) for _ in range(12)]
            values = [metrics["throughput"] for metrics, _ in runs]
            return np.std(values) / np.mean(values), {cost for _, cost in runs}

        (short, short_cost), (long, long_cost) = spread_and_cost(6.0), spread_and_cost(600.0)
        assert (short_cost, long_cost) == ({18.0}, {1800.0})
        assert long < short / 5

    def test_runtime_metric_cost(self):
        db = SimulatedDBMS(env=QUIET_CLOUD(seed=0), seed=0)
        runner = BenchmarkRunner(
            db, tpcc(50), Objective("latency_avg"), runtime_metric=True
        )
        metrics, cost = runner(db.space.default_configuration())
        assert cost == pytest.approx(metrics["latency_avg"])

    def test_validation(self):
        db = SimulatedDBMS(env=QUIET_CLOUD(seed=0), seed=0)
        with pytest.raises(ReproError):
            BenchmarkRunner(db, tpcc(10), Objective("throughput"), repeats=0)
