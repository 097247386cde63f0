"""Wire- and evaluator-level fault injection.

The client side consults the injector inside
:meth:`~repro.service.client.ServiceClient._request` (via the
``transport_faults`` constructor argument) at site ``client.request``,
keyed by request path — so each session's wire-fault sequence is
deterministic.
The server side is a :class:`ServerFaultHook` passed to
:class:`~repro.service.server.TuningServer`, consulted once per accepted
connection at site ``server.connection``.

:func:`chaotic_evaluator` wraps any evaluator with deterministic,
per-key-sequenced trial crashes (``crash`` → raises
:class:`~repro.exceptions.SystemCrashError`, folded into a failed trial by
the executor) and metric noise spikes (``noise`` → every metric scaled by
``1 + magnitude``).
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Mapping

from ..exceptions import SystemCrashError
from .plan import FaultDecision, FaultInjector

__all__ = ["ClientFaultTransport", "ServerFaultHook", "chaotic_evaluator"]


class ClientFaultTransport:
    """Client-side wire faults: resets, added latency, forced timeouts.

    ``await transport.before_request(path)`` is called by the client before
    opening the connection; it raises (or delays) according to the plan.
    """

    def __init__(self, injector: FaultInjector) -> None:
        self.injector = injector

    async def before_request(self, path: str) -> None:
        decision = self.injector.decide("client.request", path)
        if decision is None:
            return
        if decision.kind == "latency":
            await asyncio.sleep(max(0.0, decision.magnitude))
            return
        if decision.kind in ("reset", "torn", "error", "ack_lost", "crash"):
            raise ConnectionResetError(decision.message)
        if decision.kind == "noise":  # pragma: no cover - meaningless on the wire
            return


class ServerFaultHook:
    """Server-side connection faults, consulted once per accepted connection.

    ``reset`` aborts the connection before reading the request (the client
    observes a reset / empty response); ``latency`` stalls the connection
    (slow peer) before serving it.
    """

    def __init__(self, injector: FaultInjector) -> None:
        self.injector = injector

    async def on_connection(self) -> bool:
        """Returns ``False`` when the connection must be dropped."""
        decision = self.injector.decide("server.connection")
        if decision is None:
            return True
        if decision.kind == "latency":
            await asyncio.sleep(max(0.0, decision.magnitude))
            return True
        return False


def chaotic_evaluator(
    evaluator: Callable[[Any], Any],
    injector: FaultInjector,
    key: str = "",
) -> Callable[[Any], Any]:
    """Wrap an evaluator with deterministic crashes and noise spikes.

    The wrapper consults the injector once per evaluation (keyed so each
    session or worker gets an independent deterministic sequence):

    * ``crash`` — raises :class:`SystemCrashError`; executors fold it into
      a failed trial with an imputed score.
    * ``noise`` — runs the evaluation, then scales every numeric metric by
      ``1 + magnitude`` (a measurement-noise spike, per TUNA's unstable-
      cloud-evaluation setting).
    """

    def evaluate(config: Any) -> Any:
        decision = injector.decide("evaluator.run", key)
        if decision is not None and decision.kind == "crash":
            raise SystemCrashError(decision.message)
        result = evaluator(config)
        if decision is not None and decision.kind == "noise":
            return _spike(result, decision)
        return result

    return evaluate


def _spike(result: Any, decision: FaultDecision) -> Any:
    scale = 1.0 + decision.magnitude
    if isinstance(result, Mapping):
        return {
            name: value * scale if isinstance(value, (int, float)) and not isinstance(value, bool) else value
            for name, value in result.items()
        }
    if isinstance(result, (int, float)) and not isinstance(result, bool):
        return result * scale
    return result  # tuples/EvaluationResult shapes pass through unspiked
