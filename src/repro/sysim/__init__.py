"""Simulated systems substrate: DBMS, Redis, Spark, cloud noise, telemetry."""

from .._lazy import lazy_exports

# Public name -> defining submodule, imported on first use (see repro._lazy):
# a process tuning one simulator loads no other.
_EXPORTS = {
    "QUIET_CLOUD": ".cloud",
    "VM_SIZES": ".cloud",
    "CloudEnvironment": ".cloud",
    "Machine": ".cloud",
    "VMSize": ".cloud",
    "FLUSH_METHODS": ".dbms",
    "SimulatedDBMS": ".dbms",
    "NginxServer": ".nginx",
    "web_workload": ".nginx",
    "RedisServer": ".redis",
    "redis_benchmark_workload": ".redis",
    "SparkCluster": ".spark",
    "KnobLevel": ".system",
    "PerfProfile": ".system",
    "SimulatedSystem": ".system",
    "TELEMETRY_CHANNELS": ".telemetry",
    "TelemetryTrace": ".telemetry",
    "generate_telemetry": ".telemetry",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
