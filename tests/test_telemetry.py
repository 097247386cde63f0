"""Telemetry: one root span per trial, counters, JSON export, runner/agent wiring."""

from __future__ import annotations

import json

import pytest

from repro.core import Objective, TuningSession
from repro.exceptions import SystemCrashError
from repro.execution import RetryPolicy, ThreadedExecutor
from repro.optimizers import RandomSearchOptimizer
from repro.telemetry import SessionTrace, TelemetryCallback


class TestSessionTrace:
    def test_counters_and_gauges(self):
        trace = SessionTrace("t")
        trace.metrics.inc("a")
        trace.metrics.inc("a", 2.0)
        trace.metrics.set_gauge("g", 1.0)
        trace.metrics.set_gauge("g", 3.0)
        assert trace.metrics.counter_value("a") == 3.0
        assert trace.metrics.gauges["g"] == 3.0  # gauges hold the latest value

    def test_span_lookup_and_outcomes(self):
        trace = SessionTrace()
        trace.record_trial(0, 0.0, {"outcome": "success"})
        trace.record_trial(1, 0.0, {"outcome": "crash"}, status="error", error="boom")
        by_id = {root.trial_id: root for root in trace.trial_spans()}
        assert set(by_id) == {0, 1}
        assert by_id[1].name == "session.trial"
        assert by_id[1].attributes["outcome"] == "crash"
        assert (by_id[1].status, by_id[1].error) == ("error", "boom")
        assert trace.outcome_counts() == {"success": 1, "crash": 1}

    def test_json_roundtrip(self, tmp_path):
        trace = SessionTrace("roundtrip")
        trace.record_trial(0, 0.25, {"retries": 2, "outcome": "success", "cost": 1.5})
        trace.metrics.inc("trials.total")
        path = tmp_path / "trace.json"
        trace.export(str(path))
        loaded = json.loads(path.read_text())
        assert loaded["name"] == "roundtrip"
        assert loaded["schema"] == 3
        assert loaded["n_trials"] == loaded["n_spans"] == 1
        (root,) = loaded["spans"]
        assert root["name"] == "session.trial" and root["parent_id"] is None
        assert root["duration_s"] == pytest.approx(0.25)
        assert root["attributes"]["retries"] == 2
        assert "children" not in root and "ops" not in loaded
        assert loaded["counters"]["trials.total"] == 1.0


class TestTelemetryCallback:
    def test_one_span_per_trial_with_outcome_and_retries(self, simple_space, tmp_path):
        def crashy(config):
            if int(config["n"]) % 2 == 0:
                raise SystemCrashError("even n crashes")
            return {"lat": float(config["x"])}

        path = tmp_path / "trace.json"
        callback = TelemetryCallback(export_path=str(path))
        opt = RandomSearchOptimizer(simple_space, Objective("lat"), seed=0)
        with ThreadedExecutor(max_workers=4, retry=RetryPolicy(max_retries=1)) as executor:
            res = TuningSession(
                opt, crashy, max_trials=8, batch_size=4, callbacks=[callback], executor=executor
            ).run()

        trace = callback.trace
        roots = trace.trial_spans()
        assert len(roots) == res.n_trials == 8
        assert sorted(root.trial_id for root in roots) == list(range(8))
        for root in roots:
            assert root.attributes["outcome"] in ("success", "crash")
            assert root.attributes["retries"] >= 0
        crashes = [root for root in roots if root.attributes["outcome"] == "crash"]
        assert crashes  # deterministic: even n crashes (even after 1 retry)
        assert all(root.attributes["retries"] == 1 for root in crashes)  # retried once, still crashed
        assert all(root.status == "error" and "even n crashes" in root.error for root in crashes)
        counter = trace.metrics.counter_value
        assert counter("trials.total") == 8
        assert counter("trials.failed") == len(crashes)
        assert counter("trials.errors") == len(crashes)
        assert counter("batches.total") == 2
        assert trace.metrics.gauges["best.value"] == res.best_value

        exported = json.loads(path.read_text())
        assert exported["n_trials"] == 8
        exported_roots = [s for s in exported["spans"] if s["name"] == "session.trial"]
        assert len(exported_roots) == 8
        assert all("outcome" in s["attributes"] and "retries" in s["attributes"] for s in exported_roots)

    def test_all_failed_session_still_exports(self, simple_space):
        def always_crash(config):
            raise SystemCrashError("boom")

        callback = TelemetryCallback()
        opt = RandomSearchOptimizer(simple_space, Objective("lat"), seed=0)
        TuningSession(opt, always_crash, max_trials=3, callbacks=[callback]).run()
        assert callback.trace.metrics.counter_value("trials.failed") == 3
        assert "best.value" not in callback.trace.metrics.gauges


class TestBenchmarkRunnerTrace:
    def test_runner_counts_runs_and_seconds(self, quiet_dbms):
        from repro.benchmarking import BenchmarkRunner
        from repro.workloads import tpcc

        trace = SessionTrace()
        runner = BenchmarkRunner(
            quiet_dbms, tpcc(), Objective("throughput", minimize=False),
            repeats=2, trace=trace,
        )
        runner(quiet_dbms.space.default_configuration(), fidelity=10.0)
        assert trace.metrics.counter_value("benchmark.runs") == 2
        assert trace.metrics.counter_value("benchmark.seconds") == pytest.approx(runner.total_benchmark_seconds)


class TestOnlineAgentTrace:
    def test_agent_records_step_spans(self):
        from repro.online import GreedyOnlineTuner, OnlineTuningAgent
        from repro.sysim import QUIET_CLOUD, RedisServer, redis_benchmark_workload
        from repro.workloads import PhasedTrace

        server = RedisServer(env=QUIET_CLOUD(seed=0), seed=0)
        policy = GreedyOnlineTuner(server.space, seed=0)
        trace = SessionTrace("online")
        agent = OnlineTuningAgent(
            server, policy, Objective("latency_p95"), duration_s=5.0, trace=trace
        )
        workloads = PhasedTrace([(redis_benchmark_workload(), 6)])
        result = agent.run(workloads)
        roots = trace.trial_spans()
        assert len(roots) == len(result.records) == 6
        assert trace.metrics.counter_value("trials.total") == 6
        assert all(root.attributes["workload"] for root in roots)
        assert sum(trace.outcome_counts().values()) == 6
        assert trace.metrics.gauges["trials.history"] == 6


class TestTraceContext:
    """W3C traceparent parsing/formatting and ambient trace binding."""

    def test_format_parse_round_trip(self):
        from repro.telemetry import format_traceparent, parse_traceparent

        header = format_traceparent("ab" * 16)
        ctx = parse_traceparent(header)
        assert ctx is not None
        assert ctx.trace_id == "ab" * 16
        assert len(ctx.span_id) == 16

    @pytest.mark.parametrize("header", [
        None,
        "",
        "not-a-traceparent",
        "00-short-0123456789abcdef-01",
        f"ff-{'ab' * 16}-{'cd' * 8}-01",   # forbidden version
        f"00-{'0' * 32}-{'cd' * 8}-01",    # all-zero trace id
        f"00-{'ab' * 16}-{'0' * 16}-01",   # all-zero span id
    ])
    def test_malformed_headers_parse_to_none(self, header):
        from repro.telemetry import parse_traceparent

        assert parse_traceparent(header) is None

    def test_bind_trace_wins_over_activation(self):
        """An inbound trace context takes precedence over the activated
        trace's own id — the server-side stitching rule."""
        from repro.telemetry import bind_trace
        from repro.telemetry.spans import span

        trace = SessionTrace("local")
        with bind_trace("cd" * 16):
            with trace.activated():
                with span("optimizer.suggest", n=1):
                    pass
        assert trace.ops[0].trace_id == "cd" * 16

    def test_activation_binds_own_trace_id(self):
        from repro.telemetry.spans import span

        trace = SessionTrace("local")
        with trace.activated():
            with span("optimizer.suggest", n=1):
                pass
        assert trace.ops[0].trace_id == trace.trace_id
