"""Deterministic fault injection for the tuning service (``repro.chaos``).

The paper frames autotuning as a long-running, failure-prone systems
loop: measurements are noisy, evaluations crash, and the tuning service
itself must survive its own infrastructure. This package makes those
failures *schedulable and replayable*: a seeded, declarative
:class:`FaultPlan` decides — as a pure function of ``(seed, site, key,
invocation-index)`` — exactly which store appends fail, which connections
reset, which trials crash, and which measurements spike. Running the same
plan twice produces the same fault sequence, so resilience becomes a
property you can regression-test, and ``repro replay`` becomes the oracle
that proves campaigns stay bit-correct through injected chaos.

Pieces:

* :class:`FaultPlan` / :class:`FaultRule` — the declarative schedule
  (JSON round-trippable).
* :class:`FaultInjector` — the runtime oracle with a canonical fired-
  fault log.
* :class:`FaultyStore` — storage faults behind the ``TrialStore``
  contract (write/read errors, torn appends, lost acks).
* :class:`ClientFaultTransport` / :class:`ServerFaultHook` — wire faults
  (resets, latency) on either end.
* :func:`chaotic_evaluator` — trial crashes and metric-noise spikes.

See ``docs/robustness.md`` for the fault model and the degradation
matrix the rest of the stack implements against it.
"""

from .._lazy import lazy_exports

# Public name -> defining submodule, imported on first use (see repro._lazy).
_EXPORTS = {
    "KINDS": ".plan",
    "FaultDecision": ".plan",
    "FaultEvent": ".plan",
    "FaultInjector": ".plan",
    "FaultPlan": ".plan",
    "FaultRule": ".plan",
    "FaultyStore": ".store",
    "ClientFaultTransport": ".transport",
    "ServerFaultHook": ".transport",
    "chaotic_evaluator": ".transport",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
