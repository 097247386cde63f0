"""Layer-by-layer tracing from outside the program.

:func:`tracing` wraps the public callables listed in :data:`LAYERS` at run
time — class attributes are swapped, module-level functions are rebound in
every ``repro`` module that imported them by name — and restores them on
exit. Each call records one span ``[name, start, end, parent, request id]``
in memory; nothing is written until the run ends. The parent link travels in
a :class:`contextvars.ContextVar`, so it follows the service's
``asyncio.to_thread`` hops and stays separate per asyncio task.

Client and server spans of one request share an identifier: the client
wrapper binds a fresh W3C trace id around ``ServiceClient.request`` (the
client already sends it as ``traceparent``), and the handler wrapper reads it
back with ``current_trace_id()`` on the server.

:func:`analyze` turns spans into the per-layer metrics: calls, self time
(duration minus the part covered by child spans), and the derived wait/wire
figures.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from . import stats

# layer metric name -> [(module, class or None, attribute)], every callable
# recorded under that name. Names are the repo's modules.
LAYERS: dict[str, list[tuple[str, str | None, str]]] = {
    "space.sample_many": [("repro.space.space", "ConfigurationSpace", "sample_many")],
    "space.neighbor_many": [("repro.space.space", "ConfigurationSpace", "neighbor_many")],
    "space.encode_many": [
        ("repro.space.encoding", "OneHotEncoder", "encode_many"),
        ("repro.space.encoding", "OrdinalEncoder", "encode_many"),
    ],
    "optimizers.acquisition.generate_candidates": [
        ("repro.optimizers.acquisition", None, "generate_candidates")
    ],
    "optimizers.acquisition.score": [
        ("repro.optimizers.acquisition", cls, "__call__")
        for cls in (
            "ProbabilityOfImprovement",
            "ExpectedImprovement",
            "LowerConfidenceBound",
            "CostAwareEI",
            "ThompsonSampling",
        )
    ],
    "optimizers.gp.fit": [("repro.optimizers.gp", "GaussianProcessRegressor", "fit")],
    "optimizers.gp.predict": [("repro.optimizers.gp", "GaussianProcessRegressor", "predict")],
    "optimizers.kernels.call": [
        ("repro.optimizers.kernels", cls, "__call__")
        for cls in ("ConstantKernel", "WhiteKernel", "RBF", "Matern", "Sum", "Product")
    ],
    "optimizers.forest.fit": [("repro.optimizers.forest", "RandomForestRegressor", "fit")],
    "optimizers.forest.partial_fit": [
        ("repro.optimizers.forest", "RandomForestRegressor", "partial_fit")
    ],
    "optimizers.forest.predict": [("repro.optimizers.forest", "RandomForestRegressor", "predict")],
    "core.optimizer.suggest": [("repro.core.optimizer", "Optimizer", "suggest")],
    "core.optimizer.observe": [
        ("repro.core.optimizer", "Optimizer", "observe"),
        ("repro.core.optimizer", "Optimizer", "observe_failure"),
    ],
    "core.optimizer.state_digest": [("repro.core.optimizer", "Optimizer", "state_digest_parts")],
    "core.session.ask": [("repro.core.session", "TuningSession", "ask")],
    "core.session.tell": [("repro.core.session", "TuningSession", "tell")],
    "core.codec.encode_trial": [("repro.core.codec", None, "encode_trial")],
    "core.codec.decode_trial": [("repro.core.codec", None, "decode_trial")],
    "core.codec.config_from_values": [("repro.core.codec", None, "config_from_values")],
    "core.stores.append_trial": [
        ("repro.core.stores.json_journal", "JsonJournalStore", "append_trial"),
        ("repro.core.stores.sqlite", "SqliteTrialStore", "append_trial"),
    ],
    "core.stores.load_trials": [
        ("repro.core.stores.json_journal", "JsonJournalStore", "load_trials"),
        ("repro.core.stores.sqlite", "SqliteTrialStore", "load_trials"),
    ],
    "core.stores.session_meta": [
        (module, cls, attr)
        for module, cls in (
            ("repro.core.stores.json_journal", "JsonJournalStore"),
            ("repro.core.stores.sqlite", "SqliteTrialStore"),
        )
        for attr in ("create_session", "get_session", "update_session")
    ],
    "core.manager.create": [("repro.core.manager", "SessionManager", "create")],
    "core.manager.resume": [("repro.core.manager", "SessionManager", "resume")],
    "core.manager.status": [("repro.core.manager", "SessionManager", "status")],
    "staticcheck.lint_space": [("repro.staticcheck.spacelint", None, "lint_space")],
    "service.wire.parse": [
        ("repro.service.wire", None, "parse_json_body"),
        ("repro.service.wire", None, "parse_suggest_request"),
        ("repro.service.wire", None, "parse_trial_report"),
    ],
    "service.wire.dump": [("repro.service.wire", None, "dump_json")],
    "service.handlers.ask": [("repro.service.handlers", "ServiceHandlers", "ask")],
    "service.handlers.tell": [("repro.service.handlers", "ServiceHandlers", "tell")],
    "service.handlers.create_session": [
        ("repro.service.handlers", "ServiceHandlers", "create_session")
    ],
    "service.client.request": [("repro.service.client", "ServiceClient", "request")],
}

#: Spans that start a request: they carry the request identifier.
_CLIENT_ROOT = "service.client.request"
_HANDLER_PREFIX = "service.handlers."

# Modules whose ``from x import f`` references must exist before functions
# are rebound, or they would keep calling the unwrapped original.
_IMPORT_FIRST = (
    "repro.core.manager",
    "repro.core.replay",
    "repro.core.session",
    "repro.optimizers",
    "repro.service.client",
    "repro.service.handlers",
    "repro.service.server",
    "repro.staticcheck",
)

_CURRENT: contextvars.ContextVar[list | None] = contextvars.ContextVar("perf_span", default=None)


class Recorder:
    """In-memory span sink for one process.

    A span is the list ``[name, start, end, parent_span, request_id]``;
    appending to ``spans`` is atomic under the GIL, so worker threads need no
    lock. ``optimizers`` keeps every optimizer that suggested, so their
    public ``surrogate_stats()`` counters can be summed when the run ends.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.optimizers: dict[int, Any] = {}
        self.connects = 0
        self.retries = 0

    def surrogate_totals(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        for optimizer in self.optimizers.values():
            stats_fn = getattr(optimizer, "surrogate_stats", None)
            if stats_fn is None:
                continue
            snapshot = stats_fn()
            for key, value in snapshot.items():
                totals[key] = totals.get(key, 0.0) + float(value)
            if "n_nodes" in snapshot:
                totals["forests"] = totals.get("forests", 0.0) + 1.0
        return totals

    def dump(self) -> dict[str, Any]:
        """JSON-safe spans (parents as indices) plus the summed counters."""
        done = [span for span in self.spans if span[2] is not None]
        index = {id(span): i for i, span in enumerate(done)}
        rows = [
            [name, start, end, -1 if parent is None else index.get(id(parent), -1), rid]
            for name, start, end, parent, rid in done
        ]
        return {
            "spans": rows,
            "surrogate": self.surrogate_totals(),
            "connects": self.connects,
            "retries": self.retries,
        }


def _wrap(name: str, fn: Callable, recorder: Recorder) -> Callable:
    clock = time.perf_counter
    spans = recorder.spans

    if name == _CLIENT_ROOT:
        from repro.telemetry.spans import bind_trace, new_trace_id

        @functools.wraps(fn)
        async def client_request(self, method, path, payload=None, retry=0):
            rid = new_trace_id()
            span = [name, clock(), None, _CURRENT.get(), rid]
            spans.append(span)
            if retry:
                recorder.retries += 1
            token = _CURRENT.set(span)
            try:
                with bind_trace(rid):
                    return await fn(self, method, path, payload, retry)
            finally:
                _CURRENT.reset(token)
                span[2] = clock()

        return client_request

    if inspect.iscoroutinefunction(fn):
        from repro.telemetry.spans import current_trace_id

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            span = [name, clock(), None, _CURRENT.get(), current_trace_id()]
            spans.append(span)
            token = _CURRENT.set(span)
            try:
                return await fn(*args, **kwargs)
            finally:
                _CURRENT.reset(token)
                span[2] = clock()

        return async_wrapper

    register = recorder.optimizers if name == "core.optimizer.suggest" else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if register is not None:
            register[id(args[0])] = args[0]
        span = [name, clock(), None, _CURRENT.get(), None]
        spans.append(span)
        token = _CURRENT.set(span)
        try:
            return fn(*args, **kwargs)
        finally:
            _CURRENT.reset(token)
            span[2] = clock()

    return wrapper


@contextmanager
def tracing(recorder: Recorder) -> Iterator[Recorder]:
    """Install the wrappers for the duration of the block, then restore."""
    for module in _IMPORT_FIRST:
        importlib.import_module(module)
    undo: list[tuple[Any, str, Any]] = []

    def rebind(owner: Any, attr: str, new: Any) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    try:
        for name, targets in LAYERS.items():
            for module_name, cls_name, attr in targets:
                module = importlib.import_module(module_name)
                if cls_name is not None:
                    cls = getattr(module, cls_name)
                    rebind(cls, attr, _wrap(name, cls.__dict__[attr], recorder))
                    continue
                original = getattr(module, attr)
                wrapped = _wrap(name, original, recorder)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not mod_name.startswith("repro"):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            rebind(mod, key, wrapped)

        open_connection = asyncio.open_connection

        @functools.wraps(open_connection)
        async def counting_open_connection(*args, **kwargs):
            recorder.connects += 1
            return await open_connection(*args, **kwargs)

        rebind(asyncio, "open_connection", counting_open_connection)
        yield recorder
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# -- analysis -----------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    edge = lo
    for start, end in sorted(intervals):
        start, end = max(start, edge), min(end, hi)
        if end > start:
            total += end - start
            edge = end
    return total


def self_times(spans: list[list]) -> list[float]:
    """Self time per span: its duration minus what its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _name, start, end, parent, _rid in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - _covered(children.get(i, []), start, end)
        for i, (_name, start, end, _parent, _rid) in enumerate(spans)
    ]


#: Spans whose self time is glue rather than a layer's work: what is left of
#: an ask or tell once every callable wrapped below it is taken out.
_GLUE = ("core.session.ask", "core.session.tell", "core.optimizer.suggest")


def analyze(
    dumps: list[dict[str, Any]], loop_windows: list[tuple[float, float]] = ()
) -> dict[str, Any]:
    """Per-layer metrics from the span dumps of every process of one run.

    ``dumps[0]`` is the harness (client side), the rest are servers.
    ``loop_windows`` are the measured campaign loops on the harness's clock:
    ``loop_attributed_s`` is the self time, summed over the spans under the
    ``core.session`` roots that start inside one, of everything but
    :data:`_GLUE` — the part of the caller's ``tuner_s`` the trace pins on a
    layer that does work.
    """
    metrics: dict[str, float] = {}
    for name in LAYERS:
        metrics[f"{name}.calls"] = 0.0
        metrics[f"{name}.self_s"] = 0.0
    durations: dict[str, list[float]] = {}
    roots_s = self_sum_s = loop_attributed_s = 0.0
    n_spans = 0
    client_by_rid: dict[str, float] = {}
    handler_by_rid: dict[str, float] = {}
    wait: dict[str, float] = {"service.handlers.ask": 0.0, "service.handlers.tell": 0.0}

    for k, dump in enumerate(dumps):
        spans = dump["spans"]
        n_spans += len(spans)
        selfs = self_times(spans)
        session_child: dict[int, float] = {}
        in_loop: list[bool] = []  # parents precede children, so one pass settles it
        for i, (name, start, end, parent, rid) in enumerate(spans):
            metrics[f"{name}.calls"] += 1
            metrics[f"{name}.self_s"] += selfs[i]
            durations.setdefault(name, []).append(end - start)
            self_sum_s += selfs[i]
            if parent < 0:
                roots_s += end - start
                in_loop.append(
                    k == 0
                    and name.startswith("core.session.")
                    and any(lo <= start < hi for lo, hi in loop_windows)
                )
            else:
                in_loop.append(in_loop[parent])
            if in_loop[i] and name not in _GLUE:
                loop_attributed_s += selfs[i]
            if parent >= 0 and name.startswith("core.session.") and spans[parent][0].startswith(_HANDLER_PREFIX):
                session_child[parent] = session_child.get(parent, 0.0) + (end - start)
            if name == _CLIENT_ROOT:
                client_by_rid[rid] = end - start
            elif name.startswith(_HANDLER_PREFIX) and rid is not None:
                handler_by_rid[rid] = end - start
        for i, (name, start, end, _parent, _rid) in enumerate(spans):
            if name in wait:
                wait[name] += (end - start) - session_child.get(i, 0.0)

    for name in ("optimizers.gp.fit", "optimizers.forest.fit", "core.optimizer.suggest"):
        metrics[f"{name}.max_ms"] = max(durations.get(name, [0.0])) * 1e3
    p99 = stats.summarize(durations.get("core.stores.append_trial", []), 99, 1e3)["value"]
    if p99 is not None:  # under-sampled on the campaign workloads: left out, not zero
        metrics["core.stores.append_trial.p99_ms"] = p99
    metrics["service.handlers.ask.wait_s"] = wait["service.handlers.ask"]
    metrics["service.handlers.tell.wait_s"] = wait["service.handlers.tell"]

    # Wire time: what the client waited minus what the handler accounted for
    # (connect, HTTP parse, admission, response write), joined per request.
    wire = [client_by_rid[rid] - handler_by_rid[rid] for rid in handler_by_rid if rid in client_by_rid]
    metrics["service.server.wire_s"] = sum(wire)
    metrics["service.server.wire_p50_ms"] = stats.percentile(wire, 50) * 1e3 if wire else 0.0

    surrogate: dict[str, float] = {}
    connects = retries = 0
    for dump in dumps:
        for key, value in dump["surrogate"].items():
            surrogate[key] = surrogate.get(key, 0.0) + value
        connects += dump["connects"]
        retries += dump["retries"]
    hits, misses = surrogate.get("encode_cache_hits", 0.0), surrogate.get("encode_cache_misses", 0.0)
    metrics["space.encode_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    metrics["optimizers.gp.nll_evals"] = surrogate.get("nll_evals", 0.0)
    metrics["optimizers.gp.cholesky_full"] = surrogate.get("cholesky_full", 0.0)
    metrics["optimizers.gp.cholesky_incremental"] = surrogate.get("cholesky_incremental", 0.0)
    metrics["optimizers.gp.cholesky_s"] = surrogate.get("cholesky_ms", 0.0) / 1e3
    metrics["optimizers.gp.jitter_escalations"] = surrogate.get("jitter_escalations", 0.0)
    fits = metrics["optimizers.forest.fit.calls"] + metrics["optimizers.forest.partial_fit.calls"]
    metrics["optimizers.forest.warm_ratio"] = (
        metrics["optimizers.forest.partial_fit.calls"] / fits if fits else 0.0
    )
    metrics["optimizers.forest.trees_grown"] = surrogate.get("trees_grown", 0.0)
    forests = surrogate.get("forests", 0.0)
    metrics["optimizers.forest.n_nodes"] = surrogate.get("n_nodes", 0.0) / forests if forests else 0.0
    metrics["core.optimizer.degraded_total"] = surrogate.get("degraded_total", 0.0)
    metrics["service.client.connects"] = float(connects)
    metrics["service.client.retries"] = float(retries)
    return {
        "metrics": metrics,
        "roots_s": roots_s,
        "loop_attributed_s": loop_attributed_s,
        "self_sum_s": self_sum_s,
        "n_spans": n_spans,
        "joined_requests": len(wire),
    }
