"""Benchmark execution: measurements, repeats, early abort, duet, TUNA."""

from .._lazy import lazy_exports

# Public name -> defining submodule, imported on first use (see repro._lazy).
_EXPORTS = {
    "DuetBenchmarkRunner": ".duet",
    "DuetOutcome": ".duet",
    "Measurement": ".measurement",
    "aggregate_measurements": ".measurement",
    "BenchmarkRunner": ".runner",
    "EarlyAbortPolicy": ".runner",
    "TunaObservation": ".tuna",
    "TunaRunner": ".tuna",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
