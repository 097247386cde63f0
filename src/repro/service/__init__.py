"""Tuning-as-a-service: a durable multi-session ask/tell HTTP server.

The paper treats autotuning as a long-lived service consumed by many
workloads, not a one-shot library call. This package is that service:

* :class:`TuningServer` — a stdlib-only asyncio HTTP server hosting
  hundreds of concurrent :class:`~repro.core.session.TuningSession`\\ s;
* :class:`ServiceHandlers` — the route logic over a shared
  :class:`~repro.core.manager.SessionManager` and evaluation pool;
* :mod:`repro.service.wire` — the JSON wire schema (the same
  ``SuggestRequest``/``TrialReport`` dataclasses the library uses);
* :class:`ServiceClient` — a small asyncio client for the API.

Every acknowledged ``tell`` is journaled to the durable
:class:`~repro.core.journal.TrialStore` before the HTTP response is sent,
so killing the server mid-campaign loses nothing: a restarted server
(same store) resumes any session lazily on first touch, and client
retries carrying a ``report_id`` are deduplicated. Run one with
``repro serve`` or programmatically via :func:`serve`.
"""

from .._lazy import lazy_exports

# Public name -> defining submodule, imported on first use (see repro._lazy):
# a server loads no client, a client no server.
_EXPORTS = {
    "ServiceClient": ".client",
    "ServiceHandlers": ".handlers",
    "TuningServer": ".server",
    "serve": ".server",
    "WireError": ".wire",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
