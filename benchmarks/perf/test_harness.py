"""Self-test of the benchmark harness (run explicitly: ``pytest benchmarks/perf -q``).

Drives the real command line at ``--smoke`` sizes in subprocesses — the BLAS
pins only work in a fresh interpreter — and checks the schema, the output
checks, the driver contract, and that a broken journal fails the command.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from benchmarks.perf import catalog

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_is_the_catalog_and_meets_the_contract_limits():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert manifest == catalog.manifest()
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16 and 1 <= len(manifest["per_layer"]) <= 128
    assert isinstance(manifest["run_seconds"], int) and 1 <= manifest["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in manifest[key]]
    assert len(names) == len(set(names)) and all(NAME.match(name) for name in names)
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
    for metric in manifest["per_layer"]:
        assert set(metric) == {"name", "unit", "better"} and UNIT.match(metric["unit"])
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower" and setup["bound"] == 0.25
    # The issue fixes the other bounds at 10 %: a metric that cannot hold it is demoted, not widened.
    assert all(m["bound"] == 0.10 for m in manifest["end_to_end"] if m["name"] != "setup_s")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    started = time.perf_counter()
    proc = _cli("run", "--smoke", "--seed", "7", "--out", str(out))
    elapsed = time.perf_counter() - started
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return json.loads(out.read_text()), proc.stdout, elapsed


def test_smoke_runs_all_four_workloads_in_under_a_minute(smoke):
    result, _stdout, elapsed = smoke
    assert elapsed < 60
    assert [run["workload"] for run in result["runs"]] == list(catalog.WORKLOADS)
    assert result["claim"] is None
    assert all(run["smoke"] and not run["traced"] for run in result["runs"])


def test_smoke_schema_every_named_metric_has_unit_and_value_or_explicit_null_with_n(smoke):
    result, _stdout, _elapsed = smoke
    expected = {name: unit for name, unit, *_rest in catalog.END_TO_END}
    for run in result["runs"]:
        assert set(run["metrics"]) == set(expected)
        for name, metric in run["metrics"].items():
            assert metric["unit"] == expected[name]
            assert isinstance(metric["n"], int)
            assert metric["value"] is None or isinstance(metric["value"], float)
        # An under-sampled percentile is null with its count, never a lower percentile in disguise.
        for name in ("ask_p99_ms", "tell_p99_ms", "light_p99_ms"):
            assert run["metrics"][name]["value"] is None or run["metrics"][name]["n"] >= 1000
        for name in ("ask_p90_ms", "tell_p90_ms"):
            assert run["metrics"][name]["value"] is None or run["metrics"][name]["n"] >= 100
        assert "fallback" not in json.dumps(run["metrics"])
        # Metrics that are not defined on a workload are null with n = 0 there.
        if run["workload"] in ("bo_dbms", "smac_dbms"):
            assert run["metrics"]["light_p50_ms"] == {"value": None, "n": 0, "unit": "ms"}
        assert run["metrics"]["failed_share"]["value"] == 0.0
        assert re.fullmatch(r"[0-9a-f]{16}", run["info"]["trajectory_sha"])


def test_smoke_output_checks_all_pass(smoke):
    result, _stdout, _elapsed = smoke
    for run in result["runs"]:
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        failing = [name for name, entry in run["checks"].items() if not entry["ok"]]
        assert not failing
        assert {"journal.count", "journal.contiguous", "journal.unique_report_ids",
                "degraded_total", "best_gain_floor", "no_failed_operations"} <= set(run["checks"])
    by_name = {run["workload"]: run for run in result["runs"]}
    assert "resume.digest" in by_name["bo_dbms"]["checks"] and "resume.digest" in by_name["smac_dbms"]["checks"]
    assert by_name["svc_random"]["checks"]["replay.zero_divergences"]["ok"]


def test_smoke_environment_block(smoke):
    result, _stdout, _elapsed = smoke
    environment = result["environment"]
    assert {"nproc", "python", "numpy", "scipy", "blas_threads", "git_sha"} <= set(environment)
    assert environment["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert environment["blas_threads"]["pinned_before_numpy"] is True
    assert set(result["sizes"]) == set(catalog.WORKLOADS)
    for run in result["runs"]:
        assert run["seed"] == 7 and "store_backend" in run["info"]
        assert set(run["warnings"]) == {"harness", "server"}
        assert "by_category" in run["warnings"]["harness"]


def test_last_stdout_line_is_the_driver_object(smoke):
    _result, stdout, _elapsed = smoke
    line = json.loads(stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {name for name, _unit, _better in catalog.listed("end_to_end")}
    for value in line["metrics"].values():
        assert set(value) == {"value", "unit"} and value["value"] > 0


def test_traced_run_reports_every_per_layer_metric_and_joins_client_and_server_spans():
    proc = _cli("run", "--workload", "svc_mixed", "--smoke", "--trace", "1", "--seed", "7")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    # At smoke sizes a demoted percentile may be under-sampled; it is then left out, not faked.
    left_out = {name for name, _unit, _better in catalog.per_layer()} - set(line["metrics"])
    assert left_out <= {"ask_p90_ms", "tell_p90_ms"}
    layers = {name: entry["value"] for name, entry in line["metrics"].items()}
    assert layers["service.handlers.ask.calls"] > 0 and layers["service.server.wire_s"] > 0
    assert layers["optimizers.forest.fit.calls"] > 0 and layers["optimizers.gp.fit.calls"] == 0
    assert layers["service.client.connects"] == layers["service.client.request.calls"]
    trace_file = json.loads((ROOT / "benchmarks/perf/out/trace_svc_mixed.json").read_text())
    assert len(trace_file["processes"]) == 2  # harness (clients) and server
    name, start, end, parent, request_id = trace_file["processes"][0]["spans"][0]
    assert end >= start and parent >= -1


def test_a_dropped_journal_record_makes_the_command_exit_non_zero():
    proc = _cli("run", "--workload", "svc_random", "--smoke", "--break-journal")
    assert proc.returncode != 0
    assert "CHECK FAILED journal.count" in proc.stdout
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is False


def test_driver_entry_point_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "benchmarks/perf", tmp_path / "benchmarks/perf",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "svc_random", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and proc.stdout == ""
