"""Observability subsystem: nested spans, histograms, events, CLI trace tools.

Covers the guarantees ``docs/observability.md`` documents: spans attach to
the right trial across thread-pool workers, exceptions close spans instead
of orphaning them, histogram quantiles are exact at bucket boundaries, the
event ring buffer is bounded, and the ``--trace-out`` → ``repro trace`` →
Chrome-trace pipeline round-trips.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.core import Objective, TuningSession
from repro.exceptions import SystemCrashError
from repro.execution import RetryPolicy, SerialExecutor, ThreadedExecutor, execute_trial
from repro.optimizers import BayesianOptimizer, RandomSearchOptimizer
from repro.telemetry import (
    DEFAULT_LATENCY_BUCKETS,
    EventLog,
    Histogram,
    MetricsRegistry,
    SessionTrace,
    TelemetryCallback,
    chrome_trace,
    emit_event,
    span,
    trial_scope,
)
from repro.telemetry.spans import active_trace, current_op, current_trial_ref
from repro.space import ConfigurationSpace, FloatParameter


def _space():
    space = ConfigurationSpace("obs", seed=0)
    space.add(FloatParameter("x", 0.0, 1.0, default=0.5))
    return space


# -- histogram math -----------------------------------------------------------

class TestHistogram:
    def test_empty(self):
        h = Histogram()
        assert h.count == 0
        assert h.quantile(0.5) == 0.0
        assert h.mean == 0.0

    def test_bucket_boundary_quantiles(self):
        # Bounds (1, 2, 4): observations land exactly on boundaries.
        h = Histogram(buckets=(1.0, 2.0, 4.0))
        for v in (1.0, 1.0, 2.0, 2.0):
            h.observe(v)
        # Prometheus `le` semantics: 1.0 falls in the first bucket.
        assert h.counts[0] == 2 and h.counts[1] == 2
        # rank 2 of 4 exhausts the first bucket exactly -> its upper bound.
        assert h.quantile(0.5) == pytest.approx(1.0)
        # rank 4 of 4 exhausts the second bucket -> its upper bound.
        assert h.quantile(1.0) == pytest.approx(2.0)

    def test_quantile_interpolates_within_bucket(self):
        h = Histogram(buckets=(10.0,))
        for _ in range(10):
            h.observe(5.0)
        # All mass in [0, 10): p50 interpolates to the bucket midpoint.
        assert h.quantile(0.5) == pytest.approx(5.0)

    def test_overflow_bucket_clamped_to_observed_max(self):
        h = Histogram(buckets=(1.0,))
        h.observe(100.0)
        assert h.counts[-1] == 1
        assert h.quantile(0.99) <= 100.0
        assert h.max == 100.0

    def test_merge_and_to_dict(self):
        a, b = Histogram(buckets=(1.0, 2.0)), Histogram(buckets=(1.0, 2.0))
        a.observe(0.5)
        b.observe(1.5)
        a.merge(b)
        assert a.count == 2
        d = a.to_dict()
        assert d["count"] == 2
        assert d["buckets"][-1][0] == "+Inf"
        with pytest.raises(Exception):
            a.merge(Histogram(buckets=(9.0,)))

    def test_default_buckets_are_increasing(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.inc("c", 2.0)
        reg.set_gauge("g", 7.0)
        for v in (0.01, 0.02, 0.03):
            reg.observe("lat", v)
        assert reg.counter_value("c") == 3.0
        assert reg.gauges["g"] == 7.0
        q = reg.quantiles("lat")
        assert set(q) == {"p50", "p95", "p99"}
        assert 0.0 < q["p50"] <= q["p95"] <= q["p99"]
        assert reg.quantile("missing", 0.5) == 0.0

    def test_prometheus_exposition(self, tmp_path):
        reg = MetricsRegistry()
        reg.inc("trials.total", 3)
        reg.set_gauge("best.value", 1.5)
        reg.observe("trial.seconds", 0.02)
        text = reg.to_prometheus()
        assert "# TYPE repro_trials_total counter" in text
        assert "repro_trials_total 3" in text
        assert "# TYPE repro_trial_seconds histogram" in text
        assert 'repro_trial_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_trial_seconds_count 1" in text
        # .prom files get the text format, .json gets JSON.
        prom = tmp_path / "m.prom"
        reg.write(str(prom))
        assert "# TYPE" in prom.read_text()
        js = tmp_path / "m.json"
        reg.write(str(js))
        assert json.loads(js.read_text())["counters"]["trials.total"] == 3.0

    def test_merge_and_absorb(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c")
        b.inc("c", 4)
        b.observe("lat", 0.5)
        a.merge(b)
        assert a.counter_value("c") == 5.0
        assert a.histogram("lat").count == 1
        a.absorb({"nll_evals": 12, "cholesky_ms": 3.5}, "surrogate")
        assert a.gauges["surrogate.nll_evals"] == 12.0


class TestEventLog:
    def test_ring_buffer_bounds_and_dropped(self):
        log = EventLog(maxlen=4)
        for i in range(10):
            log.emit("k", message=str(i))
        assert len(log.snapshot()) == 4
        assert log.dropped == 6
        assert [e.message for e in log.snapshot()] == ["6", "7", "8", "9"]

    def test_filter_and_counts(self):
        log = EventLog()
        log.emit("executor.retry", severity="warning")
        log.emit("executor.timeout", severity="warning")
        log.emit("agent.crash", severity="error")
        assert log.counts_by_kind() == {"executor.retry": 1, "executor.timeout": 1, "agent.crash": 1}
        assert len(log.filter(kind="executor")) == 2
        assert len(log.filter(severity="error")) == 1

    def test_invalid_severity_rejected(self):
        log = EventLog()
        with pytest.raises(Exception):
            log.emit("k", severity="fatal")


# -- span primitives ----------------------------------------------------------

class TestSpans:
    def test_noop_without_active_trace(self):
        with span("anything", a=1) as op:
            assert op is None
        with trial_scope() as ref:
            assert ref is None
        emit_event("ignored")  # must not raise
        assert active_trace() is None

    def test_nesting_and_error_closure(self):
        trace = SessionTrace()
        with trace.activated():
            with pytest.raises(ValueError):
                with span("outer"):
                    with span("inner"):
                        raise ValueError("boom")
            assert current_op() is None  # nothing left open
        by_name = {op.name: op for op in trace.ops}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["inner"].status == "error"
        assert "ValueError" in by_name["inner"].error
        assert by_name["outer"].status == "error"
        assert active_trace() is None

    def test_trial_scope_joins_enclosing(self):
        trace = SessionTrace()
        with trace.activated():
            with trial_scope() as outer:
                with trial_scope() as inner:
                    assert inner is outer
                assert current_trial_ref() is outer
            assert current_trial_ref() is None

    def test_late_trial_id_binding(self):
        trace = SessionTrace()
        with trace.activated():
            with trial_scope() as ref:
                with span("work"):
                    pass
            assert trace.ops[0].trial_id is None
            ref.trial_id = 42
            assert trace.ops[0].trial_id == 42

    def test_ops_bounded(self):
        trace = SessionTrace(max_ops=3)
        with trace.activated():
            for _ in range(5):
                with span("op"):
                    pass
        assert len(trace.ops) == 3
        assert trace.ops_dropped == 2


# -- executor instrumentation -------------------------------------------------

class TestExecutorInstrumentation:
    def test_queue_wait_split_from_run(self):
        # One worker, three sleeping trials: the later trials must report
        # queue wait roughly equal to their predecessors' run time.
        space = _space()
        opt = RandomSearchOptimizer(space, Objective("lat"), seed=0)

        def sleepy(config):
            time.sleep(0.03)
            return {"lat": 1.0}

        callback = TelemetryCallback()
        with ThreadedExecutor(max_workers=1) as executor:
            TuningSession(
                opt, sleepy, max_trials=3, batch_size=3,
                callbacks=[callback], executor=executor,
            ).run()
        queued = [s.queue_s for s in callback.trace.spans]
        assert max(queued) > 0.02  # the last trial waited for two others
        assert callback.trace.metrics.histogram("queue.seconds").count >= 1

    def test_retry_records_attempts_and_events(self, simple_space):
        calls = {"n": 0}

        def flaky(config):
            calls["n"] += 1
            if calls["n"] == 1:
                raise SystemCrashError("first call crashes")
            return {"lat": 1.0}

        callback = TelemetryCallback()
        opt = RandomSearchOptimizer(simple_space, Objective("lat"), seed=0)
        TuningSession(
            opt, flaky, max_trials=2, callbacks=[callback],
            executor=SerialExecutor(retry=RetryPolicy(max_retries=2)),
        ).run()
        trace = callback.trace
        retried = trace.span_for(0)
        assert retried.retries == 1
        assert retried.attributes["attempts"] == ["crash", "success"]
        assert len(retried.attributes["attempt_s"]) == 2
        events = trace.events.filter(kind="executor.retry")
        assert len(events) == 1
        assert events[0].trial_id == 0
        assert trace.counters["events.executor.retry"] == 1

    def test_timeout_emits_event(self):
        def hang(config):
            time.sleep(5.0)
            return {"lat": 1.0}

        trace = SessionTrace()
        with trace.activated():
            execution = execute_trial(hang, _space().default_configuration(), timeout_s=0.05)
        assert execution.result.outcome == "timeout"
        assert trace.events.filter(kind="executor.timeout")

    def test_evaluator_spans_cross_worker_threads_to_right_trial(self, simple_space):
        # The acceptance property: under a thread pool, spans opened inside
        # the evaluator (running on pool threads) attach to the trial whose
        # config they evaluated — not to whichever trial the pool thread
        # handled last.
        def evaluator(config):
            with span("eval.work", x=float(config["x"])):
                time.sleep(0.005)
            return {"lat": float(config["x"])}

        callback = TelemetryCallback()
        opt = RandomSearchOptimizer(simple_space, Objective("lat"), seed=0)
        with ThreadedExecutor(max_workers=4) as executor:
            session = TuningSession(
                opt, evaluator, max_trials=8, batch_size=4,
                callbacks=[callback], executor=executor,
            )
            session.run()
        trace = callback.trace
        evals = [op for op in trace.ops if op.name == "eval.work"]
        assert len(evals) == 8
        assert len({op.thread for op in evals}) > 1  # genuinely multi-threaded
        by_trial = {t.trial_id: t.config for t in session.optimizer.history}
        for op in evals:
            assert op.trial_id is not None
            assert op.attributes["x"] == pytest.approx(float(by_trial[op.trial_id]["x"]))
        # Executor-side spans are always attributed; only the batch-level
        # optimizer.suggest (serving 4 trials at once) stays session-scoped.
        unattributed = {op.name for op in trace.ops if op.trial_id is None}
        assert unattributed <= {"optimizer.suggest"}
        assert current_op() is None and active_trace() is None

    def test_exception_in_evaluator_closes_spans(self, simple_space):
        def crashy(config):
            with span("eval.work"):
                raise SystemCrashError("boom")

        callback = TelemetryCallback()
        opt = RandomSearchOptimizer(simple_space, Objective("lat"), seed=0)
        with ThreadedExecutor(max_workers=2) as executor:
            TuningSession(
                opt, crashy, max_trials=4, batch_size=2,
                callbacks=[callback], executor=executor,
            ).run()
        evals = [op for op in callback.trace.ops if op.name == "eval.work"]
        assert len(evals) == 4
        assert all(op.status == "error" for op in evals)
        assert current_op() is None


# -- session-level guarantees -------------------------------------------------

class TestSessionTracing:
    def test_trial_spans_contain_nested_ops_summing_under_parent(self):
        space = _space()
        opt = BayesianOptimizer(space, n_init=3, n_candidates=16, seed=0)
        callback = TelemetryCallback()
        TuningSession(
            opt, lambda c: (c["x"] - 0.4) ** 2, max_trials=8, callbacks=[callback]
        ).run()
        trace = callback.trace
        assert len(trace.spans) == 8
        for trial_span in trace.spans:
            ops = trace.ops_for(trial_span.trial_id)
            assert len(ops) >= 3  # optimizer.suggest, executor.run, executor.attempt
            names = {op.name for op in ops}
            assert {"optimizer.suggest", "executor.run", "executor.attempt"} <= names
            # Every op falls inside its trial's window, and top-level
            # children can't sum past the parent duration.
            for op in ops:
                assert op.t0 >= trial_span.started_s - 1e-9
                assert op.t1 <= trial_span.ended_s + 1e-9
            roots = [op for op in ops if op.parent_id is None]
            assert sum(op.duration_s for op in roots) <= trial_span.duration_s + 1e-9
        # Model-phase spans exist once BO takes over.
        assert any(op.name == "surrogate.fit" for op in trace.ops)
        assert any(op.name == "acquisition.optimize" for op in trace.ops)

    def test_wall_clock_epoch_alongside_monotonic(self):
        callback = TelemetryCallback()
        opt = RandomSearchOptimizer(_space(), Objective("lat"), seed=0)
        TuningSession(opt, lambda c: {"lat": 1.0}, max_trials=2, callbacks=[callback]).run()
        trace = callback.trace
        assert trace.started_at > 1e9  # epoch seconds
        for s in trace.spans:
            assert s.started_at > 1e9 and s.ended_at >= s.started_at
        for op in trace.ops:
            assert op.wall0 > 1e9

    def test_surrogate_stats_absorbed_without_breaking_api(self):
        space = _space()
        opt = BayesianOptimizer(space, n_init=2, n_candidates=8, seed=0)
        callback = TelemetryCallback()
        TuningSession(opt, lambda c: c["x"], max_trials=5, callbacks=[callback]).run()
        stats = opt.surrogate_stats()  # public API unchanged
        assert stats["nll_evals"] >= 0
        gauges = callback.trace.metrics.gauges
        assert any(k.startswith("surrogate.") for k in gauges)
        assert gauges["surrogate.nll_evals"] == stats["nll_evals"]

    def test_export_has_children_metrics_events(self, tmp_path):
        path = tmp_path / "trace.json"
        callback = TelemetryCallback(export_path=str(path))
        opt = RandomSearchOptimizer(_space(), Objective("lat"), seed=0)
        TuningSession(opt, lambda c: {"lat": 1.0}, max_trials=3, callbacks=[callback]).run()
        data = json.loads(path.read_text())
        assert data["n_spans"] == 3
        for s in data["spans"]:
            assert len(s["children"]) >= 3
            child_sum = sum(c["duration_s"] for c in s["children"] if c["parent_id"] is None)
            assert child_sum <= s["duration_s"] + 1e-9
        assert "metrics" in data and "histograms" in data["metrics"]
        assert "trial.seconds" in data["metrics"]["histograms"]
        assert isinstance(data["events"], list)


# -- chrome export + analyzer + CLI -------------------------------------------

class TestTraceTools:
    @pytest.fixture()
    def exported(self, tmp_path):
        path = tmp_path / "trace.json"
        callback = TelemetryCallback(export_path=str(path))
        opt = RandomSearchOptimizer(_space(), Objective("lat"), seed=0)

        def evaluator(config):
            emit_event("custom.marker", message="hello")
            return {"lat": float(config["x"])}

        TuningSession(opt, evaluator, max_trials=4, callbacks=[callback]).run()
        return path, callback.trace

    def test_chrome_trace_structure(self, exported):
        _, trace = exported
        doc = chrome_trace(trace)
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len([e for e in complete if e["cat"] == "trial"]) == 4
        assert len([e for e in complete if e["cat"] == "op"]) == len(trace.ops)
        assert [e for e in events if e["ph"] == "i"]  # instant markers
        tids = {e["tid"] for e in complete if e["cat"] == "trial"}
        assert tids == {1, 2, 3, 4}  # one track per trial
        assert all(e["ts"] >= 0 and e.get("dur", 1) >= 1 for e in complete)

    def test_analyzer_report(self, exported):
        from repro.telemetry.analyzer import format_report, load_trace, phase_stats

        path, _ = exported
        data = load_trace(str(path))
        phases = phase_stats(data)
        assert {r["phase"] for r in phases} >= {"optimizer.suggest", "executor.run", "executor.attempt"}
        assert abs(sum(r["share"] for r in phases) - 1.0) < 1e-6
        report = format_report(data, show_events=True)
        assert "per-phase latency breakdown" in report
        assert "slowest" in report
        assert "custom.marker" in report

    def test_cli_tune_trace_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        trace_out = tmp_path / "t.json"
        metrics_out = tmp_path / "m.prom"
        rc = main([
            "tune", "--system", "redis", "--optimizer", "random", "--trials", "4",
            "--trace-out", str(trace_out), "--metrics-out", str(metrics_out),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out and "p95 trial=" in out
        data = json.loads(trace_out.read_text())
        assert data["n_spans"] == 4
        assert all(len(s["children"]) >= 3 for s in data["spans"])
        assert "# TYPE repro_trial_seconds histogram" in metrics_out.read_text()

        chrome_out = tmp_path / "chrome.json"
        rc = main(["trace", str(trace_out), "--chrome", str(chrome_out), "--events"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "per-phase latency breakdown" in out
        chrome = json.loads(chrome_out.read_text())
        assert any(e["ph"] == "X" for e in chrome["traceEvents"])

    def test_cli_compare_bundle(self, tmp_path, capsys):
        from repro.cli import main
        from repro.telemetry.analyzer import load_trace, trace_runs

        trace_out = tmp_path / "bundle.json"
        rc = main([
            "compare", "--system", "redis", "--optimizers", "random,anneal",
            "--trials", "3", "--seeds", "1", "--trace-out", str(trace_out),
        ])
        assert rc == 0
        bundle = load_trace(str(trace_out))
        runs = trace_runs(bundle)
        assert len(runs) == 2
        labels = {label for label, _ in runs}
        assert labels == {"random/seed0", "anneal/seed0"}
        for _, tr in runs:
            assert tr["n_spans"] == 3
        rc = main(["trace", str(trace_out)])
        assert rc == 0
        assert "random/seed0" in capsys.readouterr().out
