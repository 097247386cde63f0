"""Declarative, seeded fault plans with replayable schedules.

A :class:`FaultPlan` is a seed plus an ordered list of :class:`FaultRule`
entries, each naming an injection *site* (``"store.append"``,
``"client.request"``, ``"evaluator.run"``, …), a fault *kind*, a firing
rate, and an optional window. The plan is pure data: a chaos campaign's
exact failure schedule is its seed and its rules.

Determinism is the whole point. Whether invocation ``i`` of a site (for a
given *key* — usually a session id) suffers a fault is a pure function of
``(seed, site, key, i)``: a SHA-256 of that tuple drives the Bernoulli
draw. No mutable RNG stream is shared across sites or keys, so thread
interleaving between concurrent sessions cannot perturb the schedule —
the same seed produces the same fault sequence for every key no matter
how the event loop slices the work. ``max_fires`` windows stay
deterministic too, because which earlier indices fired is itself fixed by
the hash.

:class:`FaultInjector` is the runtime half: it tracks per-``(site, key)``
invocation counters, applies the rules, records every decision in an
in-memory :class:`FaultEvent` log (canonically sortable, for run-to-run
equality assertions), and mirrors fired faults into the telemetry event
log as ``chaos.fault`` events.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Iterable

from ..exceptions import ReproError
from ..telemetry.spans import emit_event

__all__ = [
    "FaultRule",
    "FaultPlan",
    "FaultDecision",
    "FaultEvent",
    "FaultInjector",
    "KINDS",
]

#: The closed vocabulary of fault kinds. What each means is defined by the
#: site that consults the injector (see docs/robustness.md's fault model):
#:
#: ``error``     operation fails cleanly before any effect (store IO error,
#:               connection refused).
#: ``torn``      operation fails mid-effect (partial journal append).
#: ``ack_lost``  operation succeeds but the acknowledgement is lost — the
#:               caller sees a failure and must retry idempotently.
#: ``reset``     connection reset (client transport / server hook).
#: ``latency``   the operation is delayed by ``magnitude`` seconds.
#: ``crash``     the evaluated trial crashes (``SystemCrashError``).
#: ``noise``     the trial's metrics are scaled by ``1 + magnitude``.
KINDS = frozenset({"error", "torn", "ack_lost", "reset", "latency", "crash", "noise"})


@dataclass(frozen=True)
class FaultRule:
    """One scheduled fault: *where*, *what*, *how often*, *when*.

    ``rate`` is the per-invocation firing probability within the
    ``[start, stop)`` invocation-index window (per key); ``max_fires``
    bounds total fires per key. ``magnitude`` parameterises the kind
    (latency seconds, noise fraction); ``message`` is carried into the
    injected error text.
    """

    site: str
    kind: str
    rate: float = 1.0
    start: int = 0
    stop: int | None = None
    max_fires: int | None = None
    magnitude: float = 0.0
    message: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ReproError(f"unknown fault kind {self.kind!r}; choose from {sorted(KINDS)}")
        if not 0.0 <= self.rate <= 1.0:
            raise ReproError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.start < 0 or (self.stop is not None and self.stop < self.start):
            raise ReproError(f"bad fault window [{self.start}, {self.stop})")
        if self.max_fires is not None and self.max_fires < 1:
            raise ReproError(f"max_fires must be >= 1, got {self.max_fires}")


@dataclass(frozen=True)
class FaultDecision:
    """What the injector decided for one invocation: which rule fired."""

    site: str
    key: str
    index: int
    kind: str
    magnitude: float
    message: str
    rule: int  # index into FaultPlan.rules


@dataclass(frozen=True)
class FaultEvent:
    """One fired fault, as recorded in the injector's in-memory log."""

    site: str
    key: str
    index: int
    kind: str
    rule: int

    def as_tuple(self) -> tuple[str, str, int, str, int]:
        return (self.site, self.key, self.index, self.kind, self.rule)


def _bernoulli(seed: int, rule: int, site: str, key: str, index: int) -> float:
    """Deterministic uniform draw in [0, 1) for one (rule, site, key, index)."""
    text = f"{seed}|{rule}|{site}|{key}|{index}"
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, declarative schedule of faults.

    ``injector()`` builds the runtime :class:`FaultInjector`; calling it
    twice (or in two different processes) yields identical schedules.
    """

    seed: int
    rules: tuple[FaultRule, ...] = ()
    name: str = "chaos"

    def __init__(self, seed: int, rules: Iterable[FaultRule] = (), name: str = "chaos") -> None:
        object.__setattr__(self, "seed", int(seed))
        object.__setattr__(self, "rules", tuple(rules))
        object.__setattr__(self, "name", str(name))

    def injector(self) -> "FaultInjector":
        return FaultInjector(self)

    def schedule(self, site: str, key: str, n: int) -> list[FaultDecision | None]:
        """The first ``n`` decisions for one (site, key) — without running.

        This is the stateless view of the deterministic schedule: a fresh
        injector queried ``n`` times for the same (site, key) returns
        exactly this list.
        """
        injector = self.injector()
        return [injector.decide(site, key, record=False) for _ in range(n)]


class FaultInjector:
    """Runtime fault oracle over one :class:`FaultPlan`.

    Thread-safe: sites are consulted from the event loop, worker threads,
    and store wrappers concurrently. Per-``(site, key)`` invocation
    counters advance monotonically; the decision for each index is a pure
    function of the plan's seed, so concurrent interleavings cannot change
    which invocations fault.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._counts: dict[tuple[str, str], int] = {}
        self._fires: dict[tuple[int, str, str], int] = {}  # (rule, site, key) -> fires
        self._events: list[FaultEvent] = []

    # -- decisions -----------------------------------------------------------
    def _decide_at(self, site: str, key: str, index: int) -> FaultDecision | None:
        for rule_index, rule in enumerate(self.plan.rules):
            if rule.site != site:
                continue
            if index < rule.start or (rule.stop is not None and index >= rule.stop):
                continue
            if rule.max_fires is not None:
                fired = self._fires.get((rule_index, site, key), 0)
                if fired >= rule.max_fires:
                    continue
            if _bernoulli(self.plan.seed, rule_index, site, key, index) >= rule.rate:
                continue
            self._fires[(rule_index, site, key)] = (
                self._fires.get((rule_index, site, key), 0) + 1
            )
            return FaultDecision(
                site=site,
                key=key,
                index=index,
                kind=rule.kind,
                magnitude=rule.magnitude,
                message=rule.message or f"injected {rule.kind} at {site}[{key}]#{index}",
                rule=rule_index,
            )
        return None

    def decide(self, site: str, key: str = "", record: bool = True) -> FaultDecision | None:
        """Advance the (site, key) counter and return the fault, if any.

        ``record=False`` still advances counters but keeps the decision out
        of the fault log and the trace (used by :meth:`FaultPlan.schedule`).
        """
        with self._lock:
            counter_key = (site, key)
            index = self._counts.get(counter_key, 0)
            self._counts[counter_key] = index + 1
            decision = self._decide_at(site, key, index)
            if decision is not None and record:
                self._events.append(
                    FaultEvent(site=site, key=key, index=index, kind=decision.kind, rule=decision.rule)
                )
        if decision is not None and record:
            emit_event(
                "chaos.fault",
                severity="warning",
                message=decision.message,
                site=site,
                key=key,
                index=index,
                fault_kind=decision.kind,
                rule=decision.rule,
            )
        return decision

    # -- introspection -------------------------------------------------------
    def canonical_log(self) -> list[tuple[str, str, int, str, int]]:
        """The fired faults as a sorted, timing-independent tuple list.

        Two runs of the same plan over the same per-key call sequences
        produce equal canonical logs even when thread interleaving reorders
        the firings — this is the run-to-run equality oracle the chaos
        acceptance test asserts on.
        """
        with self._lock:
            return sorted(e.as_tuple() for e in self._events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultInjector(plan={self.plan.name!r}, seed={self.plan.seed}, "
            f"fired={len(self._events)})"
        )
