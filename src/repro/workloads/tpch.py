"""TPC-H decision-support workload: 22 query templates + workload builder.

Each query template carries the coarse characteristics the simulated DBMS
and Spark models consume: how much data it scans, how join/sort heavy it
is, and how well it parallelises. Scale factor SF ≈ 1 GB of data per unit.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ReproError
from .base import Workload

__all__ = ["TpchQuery", "TPCH_QUERIES", "tpch", "tpch_query_mix"]


@dataclass(frozen=True)
class TpchQuery:
    """Coarse cost profile of one TPC-H query template.

    Attributes
    ----------
    number:
        Query number, 1–22.
    scan_gb_per_sf:
        Data scanned per unit of scale factor.
    join_intensity:
        0–1: how much of the work is joins (drives memory sensitivity).
    sort_intensity:
        0–1: sort/aggregate memory pressure.
    parallel_fraction:
        Amdahl-style parallelisable share of the work.
    selectivity:
        Fraction of scanned rows surviving filters (drives shuffle volume).
    """

    number: int
    scan_gb_per_sf: float
    join_intensity: float
    sort_intensity: float
    parallel_fraction: float
    selectivity: float


def _q(n: int, scan: float, join: float, sort: float, par: float, sel: float) -> TpchQuery:
    return TpchQuery(n, scan, join, sort, par, sel)


#: The 22 templates. Values are stylised but keep the well-known ordering:
#: Q1 is a full-lineitem scan+aggregate, Q9/Q21 are the join monsters,
#: Q6 is a cheap selective scan, etc.
TPCH_QUERIES: dict[int, TpchQuery] = {
    q.number: q
    for q in [
        _q(1, 0.75, 0.05, 0.60, 0.95, 0.98),
        _q(2, 0.15, 0.70, 0.30, 0.80, 0.01),
        _q(3, 0.55, 0.55, 0.45, 0.90, 0.10),
        _q(4, 0.45, 0.40, 0.30, 0.90, 0.05),
        _q(5, 0.60, 0.75, 0.40, 0.85, 0.02),
        _q(6, 0.75, 0.00, 0.05, 0.98, 0.02),
        _q(7, 0.60, 0.70, 0.45, 0.85, 0.02),
        _q(8, 0.65, 0.80, 0.40, 0.85, 0.01),
        _q(9, 0.80, 0.90, 0.55, 0.80, 0.05),
        _q(10, 0.55, 0.55, 0.50, 0.90, 0.10),
        _q(11, 0.10, 0.45, 0.35, 0.85, 0.05),
        _q(12, 0.50, 0.35, 0.25, 0.92, 0.05),
        _q(13, 0.25, 0.50, 0.45, 0.88, 0.50),
        _q(14, 0.50, 0.30, 0.15, 0.93, 0.02),
        _q(15, 0.50, 0.35, 0.30, 0.90, 0.03),
        _q(16, 0.15, 0.45, 0.40, 0.88, 0.10),
        _q(17, 0.55, 0.60, 0.25, 0.85, 0.01),
        _q(18, 0.70, 0.70, 0.60, 0.82, 0.05),
        _q(19, 0.55, 0.45, 0.15, 0.92, 0.01),
        _q(20, 0.45, 0.55, 0.30, 0.87, 0.02),
        _q(21, 0.75, 0.90, 0.50, 0.80, 0.03),
        _q(22, 0.15, 0.35, 0.35, 0.88, 0.10),
    ]
}


def tpch_query_mix(queries: list[int] | None = None) -> dict[int, float]:
    """Uniform mix over the given query numbers (default: all 22)."""
    numbers = queries if queries is not None else sorted(TPCH_QUERIES)
    for n in numbers:
        if n not in TPCH_QUERIES:
            raise ReproError(f"unknown TPC-H query number {n}")
    if not numbers:
        raise ReproError("query mix cannot be empty")
    share = 1.0 / len(numbers)
    return {n: share for n in numbers}


def tpch(
    scale_factor: float = 10.0,
    queries: list[int] | None = None,
    concurrency: int = 4,
) -> Workload:
    """Build a TPC-H workload at scale factor ``scale_factor``.

    The aggregate characteristics are the mix-weighted averages of the
    selected query templates; data volume is ~1 GB × SF.
    """
    if scale_factor <= 0:
        raise ReproError(f"scale_factor must be positive, got {scale_factor}")
    mix = tpch_query_mix(queries)
    avg = lambda attr: sum(getattr(TPCH_QUERIES[n], attr) * w for n, w in mix.items())  # noqa: E731
    data_mb = 1024.0 * scale_factor
    scanned_share = min(1.0, avg("scan_gb_per_sf"))
    return Workload(
        name=f"tpch-sf{scale_factor:g}",
        read_fraction=1.0,  # decision support: read only
        scan_fraction=0.95,
        data_size_mb=data_mb,
        working_set_mb=max(1.0, data_mb * scanned_share),
        skew=0.1,  # scans are uniform, little locality
        concurrency=concurrency,
        sort_intensity=min(1.0, avg("sort_intensity") + 0.5 * avg("join_intensity")),
        commit_sensitivity=0.0,
        scale_factor=scale_factor,
        tags=("tpch", "olap"),
    )
