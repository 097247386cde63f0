"""Telemetry: spans per trial, counters, JSON export, runner/agent wiring."""

from __future__ import annotations

import json

import pytest

from repro.core import Objective, TuningSession
from repro.exceptions import SystemCrashError
from repro.execution import RetryPolicy, ThreadedExecutor
from repro.optimizers import RandomSearchOptimizer
from repro.telemetry import SessionTrace, TelemetryCallback, TrialSpan


class TestSessionTrace:
    def test_counters_and_gauges(self):
        trace = SessionTrace("t")
        trace.incr("a")
        trace.incr("a", 2.0)
        trace.gauge("g", 1.0)
        trace.gauge("g", 3.0)
        assert trace.counters["a"] == 3.0
        assert trace.gauges["g"] == 3.0  # gauges hold the latest value

    def test_span_lookup_and_outcomes(self):
        trace = SessionTrace()
        trace.add_span(TrialSpan(trial_id=0, outcome="success"))
        trace.add_span(TrialSpan(trial_id=1, outcome="crash", status="failed"))
        assert trace.span_for(1).outcome == "crash"
        assert trace.span_for(99) is None
        assert trace.outcome_counts() == {"success": 1, "crash": 1}

    def test_json_roundtrip(self, tmp_path):
        trace = SessionTrace("roundtrip")
        trace.add_span(TrialSpan(trial_id=0, retries=2, outcome="success", cost=1.5))
        trace.incr("trials.total")
        path = tmp_path / "trace.json"
        trace.export(str(path))
        loaded = json.loads(path.read_text())
        assert loaded["name"] == "roundtrip"
        assert loaded["n_spans"] == 1
        assert loaded["spans"][0]["retries"] == 2
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
        assert len(trace.spans) == res.n_trials == 8
        assert sorted(s.trial_id for s in trace.spans) == list(range(8))
        for span in trace.spans:
            assert span.outcome in ("success", "crash")
            assert span.retries >= 0
        crashes = [s for s in trace.spans if s.outcome == "crash"]
        assert crashes  # deterministic: even n crashes (even after 1 retry)
        assert all(s.retries == 1 for s in crashes)  # retried once, still crashed
        assert trace.counters["trials.total"] == 8
        assert trace.counters["trials.failed"] == len(crashes)
        assert trace.counters["trials.errors"] == len(crashes)
        assert trace.counters["batches.total"] == 2
        assert trace.gauges["best.value"] == res.best_value

        exported = json.loads(path.read_text())
        assert exported["n_spans"] == 8
        assert all("outcome" in s and "retries" in s for s in exported["spans"])

    def test_all_failed_session_still_exports(self, simple_space):
        def always_crash(config):
            raise SystemCrashError("boom")

        callback = TelemetryCallback()
        opt = RandomSearchOptimizer(simple_space, Objective("lat"), seed=0)
        TuningSession(opt, always_crash, max_trials=3, callbacks=[callback]).run()
        assert callback.trace.counters["trials.failed"] == 3
        assert "best.value" not in callback.trace.gauges


class TestBenchmarkRunnerTrace:
    def test_runner_counts_runs_and_seconds(self, quiet_dbms):
        from repro.benchmarking import BenchmarkRunner
        from repro.workloads import tpcc

        trace = SessionTrace()
        runner = BenchmarkRunner(
            quiet_dbms, tpcc(), Objective("throughput", minimize=False),
            duration_s=10.0, repeats=2, trace=trace,
        )
        runner(quiet_dbms.space.default_configuration())
        assert trace.counters["benchmark.runs"] == 2
        assert trace.counters["benchmark.seconds"] == pytest.approx(runner.total_benchmark_seconds)


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
        assert len(trace.spans) == len(result.records) == 6
        assert trace.counters["steps.total"] == 6
        assert all(s.attributes["workload"] for s in trace.spans)
        assert trace.gauges["steps.total"] == 6


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
