"""``python -m benchmarks.perf compare BASE.json CHANGE.json``.

Per workload and end-to-end metric: the median and quartiles of each side and
one verdict, by the two rules of the ``choosing-metrics`` guide.

* **worse** — the change's median is worse than the base's by more than the
  bound ``BENCHMARK.json`` fixes for the metric (for ``failed_share``, whose
  bound is zero, any increase of the mean).
* **better** — the paired rule of §8: the change wins at least nine tenths
  of all pairs (run *i* of one file against run *i* of the other; ties count
  for neither side) *and* the medians differ by more than the base's own
  inter-quartile distance.
* **unresolved** — neither of the above, but the base's run-to-run spread is
  wider than the bound, so "no regression" cannot be told from noise — unless
  every run of the change reads better than every run of the base.
* **unchanged** — everything else.

Every ratio is printed with its base. Exit status is 1 when a metric gated in
``BENCHMARK.json`` is worse on any workload; the other metrics are judged by
the same rules and marked ``(not gated)``. A workload × metric pair that is
not defined (``null`` in the result file) is omitted.
"""

from __future__ import annotations

import json
from typing import Any, Sequence

from . import catalog, stats

VERDICTS = ("better", "worse", "unchanged", "unresolved")


def verdict(base: Sequence[float], change: Sequence[float], better: str, bound: float) -> str:
    """Classify ``change`` against ``base`` for one metric (see the module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    q1, median, q3 = stats.quartiles(base)
    _c1, change_median, _c3 = stats.quartiles(change)
    gain = sign * (change_median - median)  # positive: the change reads better
    if gain < 0 and -gain > bound * abs(median):
        return "worse"
    if bound == 0 and sign * (sum(change) / len(change) - sum(base) / len(base)) < 0:
        return "worse"  # zero tolerance: a single failing run counts, whatever the median
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    if pairs and wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return "better"
    if median and (q3 - q1) / abs(median) > bound:
        if min(sign * c for c in change) > max(sign * b for b in base):
            return "unchanged"  # every run of the change beats every run of the base
        return "unresolved"
    return "unchanged"


def _values(result: dict[str, Any], workload: str, metric: str) -> list[float]:
    values = []
    for run in result["runs"]:
        if run["workload"] == workload and not run["traced"] and not run["smoke"]:
            value = run["metrics"][metric]["value"]
            if value is not None:  # not defined on this workload, or under-sampled: omitted
                values.append(value)
    return values


def compare(base: dict[str, Any], change: dict[str, Any]) -> list[dict[str, Any]]:
    """One row per workload × metric present on both sides."""
    rows = []
    for workload in catalog.WORKLOADS:
        for name, unit, better, bound, where, _definition in catalog.END_TO_END:
            b, c = _values(base, workload, name), _values(change, workload, name)
            if not b or not c:
                continue
            b_q1, b_med, b_q3 = stats.quartiles(b)
            c_q1, c_med, c_q3 = stats.quartiles(c)
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": unit,
                    "better": better,
                    "bound": bound,
                    "gated": where == "end_to_end",
                    "base": {"median": b_med, "q1": b_q1, "q3": b_q3, "n": len(b)},
                    "change": {"median": c_med, "q1": c_q1, "q3": c_q3, "n": len(c)},
                    "ratio": c_med / b_med if b_med else None,
                    "base_spread": (b_q3 - b_q1) / abs(b_med) if b_med else 0.0,
                    "pairs": min(len(b), len(c)),
                    "verdict": verdict(b, c, better, bound),
                }
            )
    return rows


def main(base_path: str, change_path: str) -> int:
    with open(base_path, encoding="utf-8") as fh:
        base = json.load(fh)
    with open(change_path, encoding="utf-8") as fh:
        change = json.load(fh)
    rows = compare(base, change)
    print(f"base   {base_path}  git {base['environment'].get('git_sha')}")
    print(f"change {change_path}  git {change['environment'].get('git_sha')}")
    header = f"{'workload':<11}{'metric':<21}{'base median [Q1, Q3] n':<40}{'change median [Q1, Q3] n':<40}{'ratio (of base)':<26}{'spread':>7} {'bound':>6}  verdict"
    print(header)
    for row in rows:
        b, c = row["base"], row["change"]
        side = lambda s: f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] n={s['n']}"  # noqa: E731
        ratio = "n/a" if row["ratio"] is None else f"{row['ratio']:.3f}x of {b['median']:.5g} {row['unit']}"
        print(
            f"{row['workload']:<11}{row['metric']:<21}{side(b):<40}{side(c):<40}{ratio:<26}"
            f"{row['base_spread']:>7.1%} {row['bound']:>6.0%}  {row['verdict']}{'' if row['gated'] else ' (not gated)'}"
        )
    counts = {v: sum(1 for row in rows if row["verdict"] == v) for v in VERDICTS}
    print("  ".join(f"{v}: {n}" for v, n in counts.items()))
    return 1 if any(row["verdict"] == "worse" and row["gated"] for row in rows) else 0
