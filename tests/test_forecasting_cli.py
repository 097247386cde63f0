"""Unit tests for the workload forecaster and the command-line interface."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.exceptions import NotFittedError, ReproError
from repro.workload_id import SeasonalForecaster


def diurnal_series(days=5, period=24, amplitude=50.0, base=100.0, noise=2.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(days * period)
    return base + amplitude * np.sin(2 * np.pi * t / period) + rng.normal(0, noise, len(t))


class TestSeasonalForecaster:
    def test_forecasts_the_next_cycle(self):
        series = diurnal_series()
        fc = SeasonalForecaster(period=24).fit(series[:-24])
        pred = fc.forecast(24)
        rmse = float(np.sqrt(np.mean((pred - series[-24:]) ** 2)))
        assert rmse < 10.0  # amplitude is 50: the cycle is clearly captured

    def test_beats_naive_last_value(self):
        series = diurnal_series()
        fc = SeasonalForecaster(period=24).fit(series[:-24])
        pred = fc.forecast(24)
        seasonal_err = np.abs(pred - series[-24:]).mean()
        naive_err = np.abs(series[-25] - series[-24:]).mean()
        assert seasonal_err < naive_err / 2

    def test_online_updates(self):
        fc = SeasonalForecaster(period=8)
        series = diurnal_series(days=4, period=8)
        for v in series:
            fc.update(v)
        assert fc.is_fitted
        assert len(fc.forecast(3)) == 3

    def test_anomaly_detection(self):
        fc = SeasonalForecaster(period=24).fit(diurnal_series())
        expected = fc.forecast(1)[0]
        assert not fc.detect_anomaly(expected)
        assert fc.detect_anomaly(expected + 500.0)

    def test_unfitted_raises(self):
        fc = SeasonalForecaster(period=24)
        with pytest.raises(NotFittedError):
            fc.forecast(1)

    def test_validation(self):
        with pytest.raises(ReproError):
            SeasonalForecaster(period=1)
        with pytest.raises(ReproError):
            SeasonalForecaster(period=24).fit(np.ones(10))
        fc = SeasonalForecaster(period=4).fit(np.arange(16, dtype=float))
        with pytest.raises(ReproError):
            fc.forecast(0)

    def test_trend_handled_by_ar_residual(self):
        """A drifting series: AR(1) on seasonal residuals tracks the drift."""
        t = np.arange(24 * 4)
        series = 100 + 0.5 * t + 20 * np.sin(2 * np.pi * t / 24)
        fc = SeasonalForecaster(period=24).fit(series)
        pred = fc.forecast(1)[0]
        true_next = 100 + 0.5 * len(t) + 20 * np.sin(2 * np.pi * len(t) / 24)
        assert abs(pred - true_next) < 6.0


class TestCLI:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["tune", "--system", "redis", "--trials", "5"])
        assert args.system == "redis" and args.trials == 5

    def test_tune_runs(self, capsys):
        rc = main([
            "tune", "--system", "redis", "--optimizer", "random",
            "--metric", "latency_p95", "--trials", "5", "--noise", "0.0",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "tuned" in out and "sched_migration_cost_ns" in out

    def test_compare_runs(self, capsys):
        rc = main([
            "compare", "--system", "redis", "--optimizers", "random,anneal",
            "--metric", "latency_p95", "--trials", "5", "--seeds", "1", "--noise", "0.0",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "random" in out and "anneal" in out

    def test_compare_honours_seed(self, capsys):
        """``--seed s --seeds k`` races on seeds s … s+k−1, trace labels included."""
        argv = ["compare", "--system", "redis", "--optimizers", "random,anneal", "--trials", "8", "--seeds", "2"]
        tables = {}
        for seed in (0, 5):
            assert main([*argv, "--seed", str(seed)]) == 0
            out = capsys.readouterr().out
            tables[seed] = out.split("\n  ", 1)[0]  # the table, above the per-leg lines
            assert f"random/seed{seed}:" in out and f"anneal/seed{seed + 1}:" in out
        assert tables[0] != tables[5]

    def test_importance_runs(self, capsys):
        rc = main([
            "importance", "--system", "nginx", "--trials", "15", "--top", "3", "--noise", "0.0",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "rank" in out

    def test_game_runs(self, capsys):
        rc = main(["game", "--optimizer", "random", "--tries", "8", "--noise", "0.0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Q1 runtime" in out

    def test_game_offers_no_fidelity_optimizer(self, capsys):
        """A try times one Q1 run to its end, so the game has no run length to hand Hyperband."""
        with pytest.raises(SystemExit):
            main(["game", "--optimizer", "hyperband"])
        assert "invalid choice: 'hyperband'" in capsys.readouterr().err

    def test_workload_spec_parsing(self, capsys):
        rc = main([
            "tune", "--system", "dbms", "--workload", "ycsb-b",
            "--optimizer", "random", "--trials", "3",
        ])
        assert rc == 0
        assert "ycsb-b" in capsys.readouterr().out

    def test_unknown_workload_is_reported(self, capsys):
        rc = main([
            "tune", "--system", "dbms", "--workload", "mystery",
            "--optimizer", "random", "--trials", "3",
        ])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_tpcc_scale_parsing(self, capsys):
        rc = main([
            "tune", "--system", "dbms", "--workload", "tpcc-30",
            "--optimizer", "random", "--trials", "3",
        ])
        assert rc == 0
        assert "tpcc-30w" in capsys.readouterr().out

    def test_bench_runs_the_checkout_benchmark(self, capfd, monkeypatch):
        monkeypatch.chdir(Path(__file__).resolve().parents[1])
        assert main(["bench", "manifest"]) == 0
        assert json.loads(capfd.readouterr().out)["paths"] == ["benchmarks/perf"]

    def test_bench_outside_a_checkout_is_a_clear_error(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "run", "--smoke"]) == 2
        assert "no benchmarks/perf" in capsys.readouterr().err
