"""Parametric workloads: YCSB, TPC-C, TPC-H, and time-varying traces."""

from .._lazy import lazy_exports

# Public name -> defining submodule, imported on first use (see repro._lazy).
# ``tpcc``, ``tpch`` and ``ycsb`` are each a submodule and the function it
# exports; resolved through this table, the function wins.
_EXPORTS = {
    "Workload": ".base",
    "DiurnalTrace": ".shifting",
    "DriftingTrace": ".shifting",
    "PhasedTrace": ".shifting",
    "WorkloadTrace": ".shifting",
    "MB_PER_WAREHOUSE": ".tpcc",
    "TPCC_TX_MIX": ".tpcc",
    "tpcc": ".tpcc",
    "TPCH_QUERIES": ".tpch",
    "TpchQuery": ".tpch",
    "tpch": ".tpch",
    "tpch_query_mix": ".tpch",
    "YCSB_MIXES": ".ycsb",
    "ycsb": ".ycsb",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
