"""Observability subsystem: nested spans, histograms, events, CLI trace tools.

Covers the guarantees ``docs/observability.md`` documents: spans attach to
the right trial across thread-pool workers, every trial — however it ran —
is one ``session.trial`` root whose tree holds its spans, exceptions close
spans instead of orphaning them, histogram quantiles are exact at bucket
boundaries, the span ring keeps the newest entries (events being
zero-length spans in it), and the ``--trace-out`` → ``repro trace`` →
Chrome-trace pipeline round-trips.
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections import deque

import pytest

from repro.core import Objective, TuningSession
from repro.exceptions import ReproError, SystemCrashError
from repro.execution import (
    ProcessExecutor,
    RetryPolicy,
    SerialExecutor,
    ThreadedExecutor,
    execute_trial,
)
from repro.optimizers import BayesianOptimizer, RandomSearchOptimizer
from repro.telemetry import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    SessionTrace,
    TelemetryCallback,
    chrome_trace,
    emit_event,
    span,
    trial_scope,
)
from repro.telemetry.analyzer import event_summary, load_trace, outcome_table, phase_stats, slowest_trials
from repro.telemetry.naming import TRIAL_SPAN
from repro.telemetry.spans import OpSpan, active_trace, current_op, current_trial_ref
from repro.space import ConfigurationSpace, FloatParameter

from .conftest import assert_exposition_round_trips


def _space():
    space = ConfigurationSpace("obs", seed=0)
    space.add(FloatParameter("x", 0.0, 1.0, default=0.5))
    return space


def _traced_eval(config):  # module-level: ProcessExecutor pickles it
    with span("eval.work"):
        time.sleep(0.002)
    return {"lat": float(config["x"])}


def _assert_trial_trees(trace, n_trials, sums_under_root=False):
    """The span-model invariants: one ``session.trial`` root per trial id,
    every span of a trial below its root and inside its window. Returns
    ``{trial_id: (root, direct children)}``."""
    by_id = {op.span_id: op for op in trace.ops}
    roots = trace.trial_spans()
    assert sorted(root.trial_id for root in roots) == list(range(n_trials))
    trees = {root.trial_id: (root, []) for root in roots}
    for op in trace.ops:
        if op.trial_id is None or op.name == TRIAL_SPAN:
            continue
        root, children = trees[op.trial_id]
        top = op
        while top.parent_id is not None and top.parent_id != root.span_id:
            top = by_id[top.parent_id]
        assert top.parent_id == root.span_id, f"{op!r} does not reach {root!r}"
        if top is op:
            children.append(op)
        assert root.t0 - 1e-9 <= op.t0 and op.t1 <= root.t1 + 1e-9
    for root, children in trees.values():
        assert root.parent_id is None and root.duration_s >= 0.0 and root.wall0 > 1e9
        if sums_under_root:
            assert sum(op.duration_s for op in children) <= root.duration_s + 1e-9
    return trees


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
        assert 0.0 < reg.quantile("lat", 0.5) <= reg.quantile("lat", 0.95) <= reg.quantile("lat", 0.99)
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

    def test_session_exposition_parses_back_exactly(self):
        # One # TYPE line per family (suggest/evaluate seconds are histograms
        # only), and values a scraper reads back unrounded: a counter past
        # 1e6, fractional histogram sums, and the special floats.
        callback = TelemetryCallback()
        opt = RandomSearchOptimizer(_space(), Objective("lat"), seed=0)
        TuningSession(
            opt, lambda c: ({"lat": float(c["x"])}, 411_522.25), max_trials=3, callbacks=[callback]
        ).run()
        metrics = callback.trace.metrics
        for name, value in (("edge.nan", math.nan), ("edge.inf", math.inf), ("edge.neg_inf", -math.inf)):
            metrics.set_gauge(name, value)
        text = metrics.to_prometheus()
        assert "repro_cost_total 1234566.75" in text and "repro_trials_total 3\n" in text
        assert "repro_edge_nan NaN" in text and "repro_edge_neg_inf -Inf" in text
        assert_exposition_round_trips(text, metrics)

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


class TestEvents:
    def test_events_share_the_span_ring_and_are_counted_at_emit(self):
        trace = SessionTrace(max_ops=4)
        with trace.activated():
            for i in range(10):
                emit_event("k", message=str(i))
        assert [op.attributes["message"] for op in trace.ops] == ["6", "7", "8", "9"]
        assert trace.ops_dropped == 6
        assert trace.metrics.counter_value("events.k") == 10  # exact, though 6 left the ring

    def test_an_event_is_a_zero_length_span_under_the_open_span(self):
        trace = SessionTrace()
        with trace.activated():
            with trial_scope() as ref:
                with span("outer") as outer:
                    emit_event("k", severity="warning", message="m", extra=1)
        event, _ = trace.ops
        assert (event.name, event.parent_id, event.ref, event.duration_s) == ("k", outer.span_id, ref, 0.0)
        assert event.attributes == {"severity": "warning", "message": "m", "extra": 1}
        assert event.trace_id == trace.trace_id

    def test_invalid_severity_rejected(self):
        with SessionTrace().activated():
            with pytest.raises(ValueError):
                emit_event("k", severity="fatal")


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
        # A ring, not fill-and-stop: the newest max_ops spans are kept and
        # the trace keeps recording. Each span names its predecessor as
        # parent, so the oldest survivor's parent has been evicted.
        trace = SessionTrace(max_ops=3)
        parent_id = None
        for i in range(5):
            op = OpSpan("op", parent_id=parent_id, ref=None, attributes={"i": i})
            trace.record_op(op)
            parent_id = op.span_id
        assert [op.attributes["i"] for op in trace.ops] == [2, 3, 4]
        assert trace.ops_dropped == 2
        trace.record_trial(0, 0.01, {"outcome": "success"})
        assert trace.ops_dropped == 3 and trace.ops[-1].name == TRIAL_SPAN
        data = json.loads(trace.to_json())
        assert (data["n_spans"], data["n_trials"], data["ops_dropped"]) == (3, 1, 3)
        kept = {s["span_id"] for s in data["spans"]}
        assert data["spans"][0]["parent_id"] not in kept  # dangling: read as a root
        assert [r["count"] for r in phase_stats(data)] == [2]
        assert [r["dominant_phase"] for r in slowest_trials(data)] == ["-"]
        assert len([e for e in chrome_trace(data)["traceEvents"] if e["ph"] == "X"]) == 3

    def test_record_trial_does_not_scan_the_ring(self):
        # A trial's parent-less spans are filed under its TrialRef as they
        # arrive, so closing it beside 50 000 spans touches only its own.
        class Unscannable(deque):
            def __iter__(self):
                raise AssertionError("record_trial iterated the span ring")

        trace = SessionTrace()
        filler = OpSpan("filler", parent_id=None, ref=None, attributes={})
        trace.ops = Unscannable([filler] * 50_000, maxlen=trace.max_ops)
        trace.ops_recorded = 50_000
        with trace.activated():
            for trial_id in range(3):
                with trial_scope() as ref:
                    with span("work"):
                        with span("inner"):
                            pass
                ref.trial_id = trial_id
                root = trace.record_trial(trial_id, 0.0, {"outcome": "success"})
                inner, work = trace.ops[-3], trace.ops[-2]
                assert trace.ops[-1] is root and work.parent_id == root.span_id
                assert inner.parent_id == work.span_id
                assert root.t0 <= work.t0 and work.t1 <= root.t1
        assert len(trace.ops) == trace.ops_recorded == 50_009

    def test_record_trial_adopts_only_spans_still_in_the_ring(self):
        trace = SessionTrace(max_ops=3)
        with trace.activated():
            with trial_scope() as ref:
                with span("evicted") as evicted:
                    pass
            for _ in range(3):
                with span("filler"):
                    pass
            ref.trial_id = 0
            root = trace.record_trial(0, 0.5, {"outcome": "success"})
        assert evicted not in trace.ops and evicted.parent_id is None  # as if the ring had been scanned
        assert root.duration_s == pytest.approx(0.5)

    def test_ring_under_concurrent_writers_and_readers(self):
        # 8 writer threads race record_trial()/to_dict() on the main thread.
        # ops_recorded is a read-modify-write shared by all of them: a lost
        # update (or a reader tripping over a concurrent append) fails here.
        import sys

        trace = SessionTrace(max_ops=64)
        n_writers, per_writer = 8, 4000
        start = threading.Barrier(n_writers + 1)

        def writer():
            start.wait(timeout=10)
            with trace.activated():
                for _ in range(per_writer):
                    with span("op"):
                        pass

        threads = [threading.Thread(target=writer) for _ in range(n_writers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            start.wait(timeout=10)
            n_trials = 0
            while any(t.is_alive() for t in threads) and n_trials < 10_000:
                trace.record_trial(n_trials, 0.0, {"outcome": "success"})
                assert trace.to_dict()["n_spans"] <= 64
                n_trials += 1
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert n_trials > 1  # the reader really overlapped the writers
        assert trace.ops_recorded == n_writers * per_writer + n_trials
        assert len(trace.ops) == 64 and trace.ops_dropped == trace.ops_recorded - 64


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
        queued = [root.attributes["queue_s"] for root in callback.trace.trial_spans()]
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
        (retried,) = [root for root in trace.trial_spans() if root.trial_id == 0]
        assert retried.attributes["retries"] == 1
        assert retried.attributes["attempts"] == ["crash", "success"]
        assert len(retried.attributes["attempt_s"]) == 2
        events = [op for op in trace.ops if op.name == "executor.retry"]
        assert len(events) == 1
        assert events[0].trial_id == 0 and events[0].attributes["severity"] == "warning"
        assert trace.metrics.counter_value("events.executor.retry") == 1

    def test_retry_event_is_exported_under_its_trial_root(self, simple_space):
        # The event is a zero-length span in its trial's tree: an
        # operator reading the export finds which trial retried, and why.
        calls = {"n": 0}

        def flaky(config):
            calls["n"] += 1
            if calls["n"] == 2:  # trial 1's first attempt
                raise SystemCrashError("second call crashes")
            return {"lat": 1.0}

        callback = TelemetryCallback()
        opt = RandomSearchOptimizer(simple_space, Objective("lat"), seed=0)
        TuningSession(
            opt, flaky, max_trials=3, callbacks=[callback],
            executor=SerialExecutor(retry=RetryPolicy(max_retries=2)),
        ).run()
        data = json.loads(callback.trace.to_json())
        by_id = {s["span_id"]: s for s in data["spans"]}
        (retry,) = [s for s in data["spans"] if s["name"] == "executor.retry"]
        top = retry
        while top["parent_id"] is not None:
            top = by_id[top["parent_id"]]
        assert by_id[retry["parent_id"]]["name"] == "executor.run"
        assert top["name"] == TRIAL_SPAN and top["trial_id"] == retry["trial_id"] == 1
        assert retry["trace_id"] == top["trace_id"] == data["trace_id"]
        assert retry["duration_s"] == 0.0
        assert retry["attributes"]["severity"] == "warning" and retry["attributes"]["outcome"] == "crash"
        assert event_summary(data) == [{"kind": "executor.retry", "count": 1, "severity": "warning"}]
        assert "executor.retry" not in {r["phase"] for r in phase_stats(data)}

    def test_timeout_emits_event(self):
        def hang(config):
            time.sleep(5.0)
            return {"lat": 1.0}

        trace = SessionTrace()
        with trace.activated():
            execution = execute_trial(hang, _space().default_configuration(), timeout_s=0.05)
        assert execution.result.outcome == "timeout"
        assert [op for op in trace.ops if op.name == "executor.timeout"]

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
        _assert_trial_trees(trace, 8, sums_under_root=True)
        for root in trace.trial_spans():
            names = {op.name for op in trace.ops if op.trial_id == root.trial_id}
            assert {"optimizer.suggest", "executor.run", "executor.attempt"} <= names
            assert "surrogate" in root.attributes  # cumulative surrogate_stats() snapshot
        # Model-phase spans exist once BO takes over.
        assert any(op.name == "surrogate.fit" for op in trace.ops)
        assert any(op.name == "acquisition.optimize" for op in trace.ops)
        # A hyper-fit says how large it was and what it spent: together the
        # spans account for every NLL evaluation the surrogate counted.
        fits = [op.attributes for op in trace.ops if op.name == "gp.hyperopt"]
        assert sum(a["nll_evals"] for a in fits) == opt.surrogate_stats()["nll_evals"] > 0
        assert all(3 <= a["n_observations"] <= 8 and math.isfinite(a["nll"]) for a in fits)

    def test_wall_clock_epoch_alongside_monotonic(self):
        callback = TelemetryCallback()
        opt = RandomSearchOptimizer(_space(), Objective("lat"), seed=0)
        TuningSession(opt, lambda c: {"lat": 1.0}, max_trials=2, callbacks=[callback]).run()
        trace = callback.trace
        assert trace.started_at > 1e9  # epoch seconds
        assert len(trace.trial_spans()) == 2
        for op in trace.ops:  # trial roots included: one clock pair for every span
            assert op.wall0 > 1e9 and op.t1 >= op.t0

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
        assert data["schema"] == 3 and data["n_trials"] == 3
        assert data["n_spans"] == len(data["spans"])
        assert "ops" not in data
        for root in (s for s in data["spans"] if s["name"] == TRIAL_SPAN):
            assert "children" not in root
            children = [s for s in data["spans"] if s["parent_id"] == root["span_id"]]
            assert {c["name"] for c in children} == {"optimizer.suggest", "executor.run"}
            assert sum(c["duration_s"] for c in children) <= root["duration_s"] + 1e-9
            assert sum(s["trial_id"] == root["trial_id"] for s in data["spans"]) >= 4
        assert "metrics" in data and "histograms" in data["metrics"]
        assert "trial.seconds" in data["metrics"]["histograms"]
        assert "events" not in data  # an event is a span


# -- one span model, every way a trial can run --------------------------------

_TRIAL_KEYS = {
    "outcome", "trial_status", "retries", "cost",
    "suggest_latency_s", "evaluate_s", "queue_s",
}


def _run_session(executor_cls, batch_size):
    callback = TelemetryCallback()
    opt = RandomSearchOptimizer(_space(), Objective("lat"), seed=0)
    kwargs = {} if executor_cls is SerialExecutor else {"max_workers": 2}
    with executor_cls(**kwargs) as executor:
        # 7 = 3 + 3 + 1: the batched runs end on a single-trial batch.
        TuningSession(
            opt, _traced_eval, max_trials=7, batch_size=batch_size,
            callbacks=[callback], executor=executor,
        ).run()
    return callback.trace, 7


def _run_agent():
    from repro.online import GreedyOnlineTuner, OnlineTuningAgent
    from repro.sysim import QUIET_CLOUD, RedisServer, redis_benchmark_workload
    from repro.workloads import PhasedTrace

    server = RedisServer(env=QUIET_CLOUD(seed=0), seed=0)
    trace = SessionTrace("online")
    agent = OnlineTuningAgent(
        server, GreedyOnlineTuner(server.space, seed=0), Objective("latency_p95"),
        duration_s=5.0, trace=trace,
    )
    agent.run(PhasedTrace([(redis_benchmark_workload(), 5)]))
    return trace, 5


class TestTrialTree:
    @pytest.mark.parametrize("how, batch_size", [
        (executor_cls, batch_size)
        for executor_cls in (SerialExecutor, ThreadedExecutor, ProcessExecutor)
        for batch_size in (1, 3)
    ] + [("agent", 1)], ids=lambda v: getattr(v, "__name__", str(v)))
    def test_every_trial_is_one_root_span(self, how, batch_size):
        trace, n = _run_agent() if how == "agent" else _run_session(how, batch_size)
        trees = _assert_trial_trees(
            trace, n, sums_under_root=(how in (SerialExecutor, "agent") and batch_size == 1)
        )
        for root, children in trees.values():
            # Same record whether or not the executor's spans crossed back; an
            # online step is a serial session's trial that also says what it
            # ran under and what the policy learned.
            online = {"workload", "value", "reward"} if how == "agent" else set()
            assert _TRIAL_KEYS | {"attempts", "attempt_s"} | online == set(root.attributes)
            assert bool(children) == (how is not ProcessExecutor)
            if how == "agent":
                assert [op.name for op in children] == ["optimizer.suggest", "executor.run"]
                names = {op.span_id: op.name for op in trace.ops}
                parent_of = {
                    op.name: names[op.parent_id]
                    for op in trace.ops if op.trial_id == root.trial_id and op is not root
                }
                assert parent_of["policy.propose"] == "optimizer.suggest"
                assert (parent_of["system.run"], parent_of["executor.attempt"]) == ("executor.attempt", "executor.run")
        if how is ThreadedExecutor:
            evals = [op for op in trace.ops if op.name == "eval.work"]
            assert sorted(op.trial_id for op in evals) == list(range(n))

        # Export -> json -> every reader.
        data = json.loads(trace.to_json())
        assert (data["schema"], data["n_trials"], data["n_spans"]) == (3, n, len(trace.ops))
        phases = {r["phase"]: r for r in phase_stats(data)}
        assert TRIAL_SPAN not in phases
        assert sum(r["count"] for r in phases.values()) == len(trace.ops) - n
        slow = slowest_trials(data, n=n)
        assert sorted(r["trial_id"] for r in slow) == list(range(n))
        for row in slow:
            _, children = trees[row["trial_id"]]
            assert (row["dominant_phase"] == "-") == (not children)
        assert sum(r["count"] for r in outcome_table(data)) == n
        complete = [e for e in chrome_trace(data)["traceEvents"] if e["ph"] == "X"]
        assert sum(e["cat"] == "trial" for e in complete) == n
        assert sum(e["cat"] == "op" for e in complete) == len(trace.ops) - n

    def test_load_trace_rejects_other_layouts(self, tmp_path):
        path = tmp_path / "old.json"
        data = SessionTrace("t").to_dict()
        del data["schema"]
        path.write_text(json.dumps(data))
        with pytest.raises(ReproError, match="schema"):
            load_trace(str(path))
        bundle = {"kind": "compare", "runs": [{"optimizer": "bo", "seed": 0, "trace": data}]}
        path.write_text(json.dumps(bundle))
        with pytest.raises(ReproError, match="bo/seed0"):
            load_trace(str(path))


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
        assert len([e for e in complete if e["cat"] == "op"]) == len(trace.ops) - 4 - 4
        markers = [e for e in events if e["ph"] == "i"]  # one instant marker per event span
        assert [(e["name"], e["cat"], e["args"]["severity"]) for e in markers] == [("custom.marker", "event", "info")] * 4
        tids = {e["tid"] for e in complete if e["cat"] == "trial"}
        assert tids == {1, 2, 3, 4}  # one track per trial
        assert all(e["ts"] >= 0 and e.get("dur", 1) >= 1 for e in complete)

    def test_analyzer_report(self, exported):
        from repro.telemetry.analyzer import format_report

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
        assert data["n_trials"] == 4
        for root in (s for s in data["spans"] if s["name"] == TRIAL_SPAN):
            assert sum(s["trial_id"] == root["trial_id"] for s in data["spans"]) >= 4
            assert root["attributes"]["optimizer"] == "random"  # span_attributes land on the root
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
        from repro.telemetry.analyzer import trace_runs

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
            assert tr["n_trials"] == 3
        rc = main(["trace", str(trace_out)])
        assert rc == 0
        assert "random/seed0" in capsys.readouterr().out
