"""Benchmark execution strategies: repeats, aggregation, early abort.

The "To Learn More … Run More Trials!" slide: repeats fight noise at a
cost; *early abort* "reports a bad score sooner — works well for
elapsed-time-based benchmarks, e.g. TPC-H": once a trial is provably worse
than the best known, stop paying for it.
"""

from __future__ import annotations


from typing import TYPE_CHECKING

from ..core import Objective
from ..exceptions import ReproError, TrialAbortedError
from ..telemetry.spans import span
from ..space import Configuration
from ..workloads import Workload
from .measurement import REFERENCE_S, aggregate_measurements

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a circular import)
    from ..sysim.system import SimulatedSystem

__all__ = ["BenchmarkRunner", "EarlyAbortPolicy"]


class EarlyAbortPolicy:
    """Abort elapsed-time trials once they exceed ``factor ×`` the best time.

    For a runtime-style metric (lower is better, metric == cost), the
    benchmark can be stopped at the bound: we then know a *lower bound* on
    the true value and have only paid the bound. The censored value reported
    is the bound itself.
    """

    def __init__(self, factor: float = 2.0) -> None:
        if factor <= 1.0:
            raise ReproError(f"abort factor must be > 1, got {factor}")
        self.factor = float(factor)
        self.best: float | None = None
        self.aborts = 0
        self.saved_cost = 0.0

    def bound(self) -> float | None:
        return None if self.best is None else self.best * self.factor

    def register(self, value: float) -> None:
        if self.best is None or value < self.best:
            self.best = float(value)

    def check(self, value: float, metric_name: str) -> float:
        """Returns the (possibly censored) value; raises on abort."""
        bound = self.bound()
        self.register(min(value, bound) if bound is not None else value)
        if bound is not None and value > bound:
            self.aborts += 1
            self.saved_cost += value - bound
            error = TrialAbortedError(
                f"aborted at {bound:.4g} (true value {value:.4g})"
            )
            error.censored_metrics = {metric_name: bound}
            error.cost = bound
            raise error
        return value


class BenchmarkRunner:
    """Evaluator over a simulated system with noise strategies.

    ``runner(config, fidelity=None)`` runs ``config`` ``repeats`` times, each
    run ``fidelity`` seconds long (:data:`~.measurement.REFERENCE_S` when the
    trial has no fidelity), and returns the aggregated metrics and their cost.

    Parameters
    ----------
    system, workload:
        What to benchmark.
    objective:
        The metric being optimized.
    repeats:
        Naive noise strategy: run N times and aggregate (slide 70's
        "costly" baseline).
    runtime_metric:
        When True, trial cost is the measured metric value itself (TPC-H
        style) rather than the run's elapsed seconds.
    trace:
        Optional :class:`~repro.telemetry.SessionTrace`; when given, the
        runner counts benchmark runs/seconds/aborts into it, so the JSON
        trace shows where the benchmark budget actually went.
    """

    def __init__(
        self,
        system: SimulatedSystem,
        workload: Workload,
        objective: Objective,
        repeats: int = 1,
        runtime_metric: bool = False,
        trace=None,
    ) -> None:
        if repeats < 1:
            raise ReproError(f"repeats must be >= 1, got {repeats}")
        self.system = system
        self.workload = workload
        self.objective = objective
        self.repeats = int(repeats)
        self.runtime_metric = runtime_metric
        self.total_benchmark_seconds = 0.0
        self.trace = trace

    def _count(self, name: str, value: float = 1.0) -> None:
        if self.trace is not None:
            self.trace.metrics.inc(f"benchmark.{name}", value)

    def __call__(self, config: Configuration, fidelity: float | None = None):
        """Evaluator: returns (metrics dict, cost)."""
        duration_s = REFERENCE_S if fidelity is None else fidelity
        with span("benchmark.measure", repeats=self.repeats, workload=self.workload.name):
            m = aggregate_measurements(
                self.system.run(self.workload, duration_s=duration_s, config=config) for _ in range(self.repeats)
            )
        value = m.metric(self.objective.name)
        cost = value * self.repeats if self.runtime_metric else m.elapsed_s
        self._count("runs", self.repeats)
        self.total_benchmark_seconds += cost
        self._count("seconds", cost)
        return dict(m.metrics()), cost
