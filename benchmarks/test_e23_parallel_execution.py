"""E23 — real parallel trial execution with tracing (the TUNA substrate).

E7 *simulates* parallel tuning on a virtual clock; this experiment runs it
for real: a ``TuningSession`` with ``batch_size=4`` and a thread-pool
``TrialExecutor`` against a sleep-based evaluator (standing in for a
benchmark that blocks on the system under test). Shape: the thread pool
cuts wall-clock by ≥2× over serial on the same trial budget, and the JSON
trace export contains exactly one span per trial with outcome and retry
count recorded.
"""

import json
import time

from repro.core import Objective, TuningSession
from repro.execution import RetryPolicy, SerialExecutor, ThreadedExecutor
from repro.optimizers import RandomSearchOptimizer
from repro.space import ConfigurationSpace, FloatParameter
from repro.telemetry import TelemetryCallback

TRIALS = 16
BATCH = 4
SLEEP_S = 0.05


def _space():
    space = ConfigurationSpace("sleepy", seed=0)
    space.add(FloatParameter("x", 0.0, 1.0, default=0.5))
    return space


def _evaluator(config):
    time.sleep(SLEEP_S)  # the benchmark blocking on the system under test
    return {"lat": float(config["x"])}, SLEEP_S


def _run(executor, callbacks=()):
    space = _space()
    opt = RandomSearchOptimizer(space, Objective("lat"), seed=0)
    with executor:
        t0 = time.perf_counter()
        result = TuningSession(
            opt, _evaluator, max_trials=TRIALS, batch_size=BATCH,
            callbacks=list(callbacks), executor=executor,
        ).run()
        wall = time.perf_counter() - t0
    return result, wall


def test_e23_threadpool_speedup_and_trace(table, tmp_path):
    export_path = tmp_path / "trace.json"

    def experiment():
        _, serial_wall = _run(SerialExecutor())
        telemetry = TelemetryCallback(export_path=str(export_path))
        result, parallel_wall = _run(
            ThreadedExecutor(max_workers=BATCH, retry=RetryPolicy(max_retries=1)),
            callbacks=[telemetry],
        )
        return serial_wall, parallel_wall, result, telemetry.trace

    serial_wall, parallel_wall, result, trace = experiment()
    speedup = serial_wall / parallel_wall
    table(
        f"E23 — parallel execution, {TRIALS} trials, batch={BATCH}, {SLEEP_S*1000:.0f} ms each",
        ["executor", "wall clock (s)", "speedup"],
        [("serial", serial_wall, 1.0), (f"thread pool ({BATCH})", parallel_wall, speedup)],
    )

    # Acceptance: batch_size=4 on a thread pool is >= 2x faster than serial.
    assert result.n_trials == TRIALS
    assert speedup >= 2.0, f"expected >= 2x speedup, got {speedup:.2f}x"

    # Acceptance: the JSON trace export has exactly one root span per
    # trial, each recording outcome and retry count.
    exported = json.loads(export_path.read_text())
    assert exported["n_trials"] == TRIALS
    roots = [s for s in exported["spans"] if s["name"] == "session.trial"]
    assert sorted(s["trial_id"] for s in roots) == list(range(TRIALS))
    for root in roots:
        assert root["attributes"]["outcome"] == "success"
        assert root["attributes"]["retries"] == 0
        assert root["attributes"]["evaluate_s"] >= SLEEP_S * 0.9
    assert exported["counters"]["trials.total"] == TRIALS
    assert exported["counters"]["batches.total"] == TRIALS / BATCH
