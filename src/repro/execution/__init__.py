"""Trial execution: serial/thread/process/simulated-clock backends, timeouts, retries."""

from .._lazy import lazy_exports

# Public name -> defining submodule, imported on first use (see repro._lazy).
_EXPORTS = {
    "ProcessExecutor": ".executor",
    "RetryPolicy": ".executor",
    "SerialExecutor": ".executor",
    "SimulatedClockExecutor": ".executor",
    "ThreadedExecutor": ".executor",
    "TrialExecution": ".executor",
    "TrialExecutor": ".executor",
    "execute_trial": ".executor",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
