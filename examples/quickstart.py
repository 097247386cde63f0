"""Quickstart: the tutorial's running example in ~20 lines.

Tune the Linux kernel's ``sched_migration_cost_ns`` to minimize Redis
tail latency with Bayesian optimization — and beat the default by ~70 %.

Run:  python examples/quickstart.py
"""

from repro import BayesianOptimizer, Objective, TuningSession
from repro.sysim import RedisServer, redis_benchmark_workload

# The system under tuning: Redis on a simulated Linux box.
server = RedisServer(seed=0)
workload = redis_benchmark_workload()

# What the defaults give us.
default = server.run(workload, config=server.space.default_configuration())
print(f"default P95 latency: {default.latency_p95:.3f} ms")

# Tune only the kernel scheduler knob (the running example of the paper).
space = server.space.subspace(["sched_migration_cost_ns"])
optimizer = BayesianOptimizer(space, objectives=Objective("latency_p95"), seed=0)
session = TuningSession(
    optimizer,
    server.evaluator(workload, metric="latency_p95"),
    max_trials=25,
)
result = session.run()

print(f"tuned   P95 latency: {result.best_value:.3f} ms")
print(f"best knob value:     sched_migration_cost_ns = {result.best_config['sched_migration_cost_ns']}")
print(f"reduction:           {1 - result.best_value / default.latency_p95:.0%}")
print(result.summary())

# -- Parallel tuning with tracing ------------------------------------------
# batch_size > 1 plus a thread-pool executor runs trials concurrently, and
# a TelemetryCallback records one root span per trial (outcome, retries, timing).
from repro import TelemetryCallback, ThreadedExecutor

telemetry = TelemetryCallback()
optimizer = BayesianOptimizer(space, objectives=Objective("latency_p95"), seed=1)
with ThreadedExecutor(max_workers=4) as executor:
    parallel_result = TuningSession(
        optimizer,
        server.evaluator(workload, metric="latency_p95"),
        max_trials=16,
        batch_size=4,
        callbacks=[telemetry],
        executor=executor,
    ).run()
print(f"parallel P95 latency: {parallel_result.best_value:.3f} ms "
      f"({telemetry.trace.outcome_counts()} over {len(telemetry.trace.trial_spans())} trial spans)")
