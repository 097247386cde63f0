"""The names this benchmark defines: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repo root is generated from here
(``python -m benchmarks.perf manifest``) and the self-test asserts the two
agree, so a later issue can quote a metric name without reading the harness.
"""

from __future__ import annotations

from typing import Any

from .trace import LAYERS

#: ``run_seconds`` frozen in ``BENCHMARK.json``: the measured phase of one run.
RUN_SECONDS = 20

#: Workload name -> why it exists (one line each; the README has the long form).
WORKLOADS: dict[str, str] = {
    "bo_dbms": (
        "In-process BO campaigns on the 21-knob DBMS target, JSON journal: GP fit and kernels "
        "do most of the work, candidate generation the rest; forest and service layers none."
    ),
    "smac_dbms": (
        "Same loop with SMAC on SQLite: once a refused config is in the history the warm "
        "partial_fit path is off, so full forest regrows do most of the work; the GP does nothing."
    ),
    "svc_random": (
        "Server subprocess, 2 closed-loop clients, 16 random sessions, JSON journal: wire, "
        "handlers, codec and fsynced appends do all the work, surrogates none (control for svc_mixed)."
    ),
    "svc_mixed": (
        "Same server; one client drives 4 SMAC sessions while the other drives 12 random "
        "ones, so light requests share the GIL, thread pool and loop with model fits."
    ),
}

# (name, unit, better, bound, listed, definition). The bound is the share of the
# parent's median by which the metric may get worse: 10 % for every timing,
# throughput and memory metric, 25 % for set-up, no increase for failures.
# ``listed`` says where ``BENCHMARK.json`` carries the metric:
#   "end_to_end"  gated: calibration (README) showed its run-to-run spread stays
#                 inside the bound on all four workloads;
#   "per_layer"   demoted as the issue prescribes — still measured, printed and
#                 compared on every run, but not a rejection gate — because its
#                 spread exceeds the bound on at least one workload;
#   None          defined on some workloads only. The driver's flat lists want
#                 every metric on every workload and cannot say "n/a", so these
#                 live in the result file and in ``compare`` alone.
END_TO_END: list[tuple[str, str, str, float, str | None, str]] = [
    ("setup_s", "s", "lower", 0.25, "end_to_end",
     "process/server start + store open + session creation, median of 5 set-ups"),
    ("trials_per_s", "1/s", "higher", 0.10, "per_layer", "acknowledged tells / measured wall time"),
    ("tuner_s", "s", "lower", 0.10, "per_layer", "sum of ask and tell latencies seen by the caller"),
    ("ask_p50_ms", "ms", "lower", 0.10, "per_layer", "median ask latency (svc_mixed: model sessions)"),
    ("ask_p90_ms", "ms", "lower", 0.10, "per_layer", "p90 ask latency (svc_mixed: model sessions)"),
    ("ask_p99_ms", "ms", "lower", 0.10, None, "p99 ask latency where >= 1000 samples (svc_random)"),
    ("tell_p50_ms", "ms", "lower", 0.10, "per_layer", "median tell latency, journaled before ack"),
    ("tell_p90_ms", "ms", "lower", 0.10, "per_layer", "p90 tell latency"),
    ("tell_p99_ms", "ms", "lower", 0.10, None, "p99 tell latency where >= 1000 samples (svc_random)"),
    ("light_p50_ms", "ms", "lower", 0.10, None,
     "median round trip pooled over random sessions (svc_*)"),
    ("light_p99_ms", "ms", "lower", 0.10, None, "p99 round trip pooled over random sessions (svc_*)"),
    ("resume_first_ask_ms", "ms", "lower", 0.10, "per_layer",
     "median resume() + first ask() on a finished journal"),
    ("best_gain_pct", "%", "higher", 0.10, "per_layer", "100 * (best - default) / default, re-measured"),
    ("failed_share", "ratio", "lower", 0.0, "per_layer",
     "operations that raised, timed out or were refused / operations attempted"),
    ("peak_rss_mb", "MB", "lower", 0.10, "end_to_end", "VmHWM of the process doing the tuner work"),
]

_EXTRA_LAYER: list[tuple[str, str, str]] = [
    ("space.encode_cache.hit_ratio", "ratio", "higher"),
    ("optimizers.gp.fit.max_ms", "ms", "lower"),
    ("optimizers.gp.nll_evals", "count", "lower"),
    ("optimizers.gp.cholesky_full", "count", "lower"),
    ("optimizers.gp.cholesky_incremental", "count", "higher"),
    ("optimizers.gp.cholesky_s", "s", "lower"),
    ("optimizers.gp.jitter_escalations", "count", "lower"),
    ("optimizers.forest.fit.max_ms", "ms", "lower"),
    ("optimizers.forest.warm_ratio", "ratio", "higher"),
    ("optimizers.forest.trees_grown", "count", "lower"),
    ("optimizers.forest.n_nodes", "count", "lower"),
    ("core.optimizer.suggest.max_ms", "ms", "lower"),
    ("core.optimizer.degraded_total", "count", "lower"),
    ("core.stores.bytes_per_trial", "B", "lower"),
    ("service.handlers.ask.wait_s", "s", "lower"),
    ("service.handlers.tell.wait_s", "s", "lower"),
    ("service.server.wire_s", "s", "lower"),
    ("service.server.wire_p50_ms", "ms", "lower"),
    ("service.server.requests", "count", "higher"),
    ("service.server.shed_total", "count", "lower"),
    ("service.server.cpu_s", "s", "lower"),
    ("service.client.connects", "count", "lower"),
    ("service.client.retries", "count", "lower"),
    ("process.warnings_total", "count", "lower"),
    ("process.cpu_s", "s", "lower"),
    ("process.trace_overhead_pct", "%", "lower"),
]


#: Needs >= 1000 appends, which only the service workloads make: like the
#: end-to-end metrics listed ``None`` it is in the result file where resolved
#: and not in ``BENCHMARK.json``.
APPEND_P99 = "core.stores.append_trial.p99_ms"


def listed(where: str) -> list[tuple[str, str, str]]:
    """The end-to-end metrics ``BENCHMARK.json`` lists under ``where``, as ``(name, unit, better)``."""
    return [(name, unit, better) for name, unit, better, _b, at, _d in END_TO_END if at == where]


def per_layer() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in table order."""
    out: list[tuple[str, str, str]] = []
    for layer in LAYERS:
        out.append((f"{layer}.calls", "count", "lower"))
        out.append((f"{layer}.self_s", "s", "lower"))
    return out + _EXTRA_LAYER + listed("per_layer")


def manifest() -> dict[str, Any]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, where, _definition in END_TO_END
            if where == "end_to_end"
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better} for name, unit, better in per_layer()
        ],
    }
