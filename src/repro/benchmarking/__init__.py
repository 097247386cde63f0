"""Benchmark execution: measurements, repeats, early abort, duet, TUNA."""

from .duet import DuetBenchmarkRunner, DuetOutcome
from .measurement import Measurement, aggregate_measurements
from .runner import BenchmarkRunner, EarlyAbortPolicy
from .tuna import TunaObservation, TunaRunner

__all__ = [
    "DuetBenchmarkRunner",
    "DuetOutcome",
    "Measurement",
    "aggregate_measurements",
    "BenchmarkRunner",
    "EarlyAbortPolicy",
    "TunaObservation",
    "TunaRunner",
]
