"""Knob discovery from documentation (the simulated-LLM pipeline)."""

from .._lazy import lazy_exports

# Public name -> defining submodule, imported on first use (see repro._lazy).
_EXPORTS = {
    "DiscoveredKnob": ".discovery",
    "ManualKnowledgeExtractor": ".discovery",
    "DBMS_MANUAL": ".manual",
    "ManualEntry": ".manual",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
