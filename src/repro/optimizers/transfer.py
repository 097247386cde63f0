"""Knowledge transfer: warm starts, crash reuse, prior banks (slide 67).

"Idea: re-use prior samples — 'warm start' a new optimization. Policy:
good samples: reuse results from similar workloads; bad samples: reuse
everywhere (if it crashes the system, probably always does)."

Tools:

* :func:`warm_start_from_history` — seed an optimizer with a prior run,
  selecting good and crashed trials per the slide's policy.
* :class:`PriorBank` — store tuning histories keyed by workload signature;
  retrieve the most similar prior run(s) for a new workload.
* :func:`space_with_priors` — a space whose knobs sample from given priors
  (the "specifying priors for individual tunables" marginal constraint).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from ..core import Optimizer, Trial, TrialStatus
from ..core.codec import config_from_values
from ..exceptions import OptimizerError
from ..space import ConfigurationSpace, Prior
from ..space.params import _NumericParameter
from ..workloads import Workload

__all__ = [
    "warm_start_from_history",
    "PriorBank",
    "PriorRun",
    "space_with_priors",
]


def warm_start_from_history(
    optimizer: Optimizer,
    trials: list[Trial],
    top_fraction: float = 0.3,
) -> int:
    """Seed ``optimizer`` with selected trials from a prior run.

    * the best ``top_fraction`` of completed trials transfer with their
      scores ("good samples: reuse results");
    * crashed/aborted trials always transfer ("bad samples: reuse
      everywhere");
    * the middle of the distribution does not ("poor samples: unclear —
      could be good in this case?").

    Returns the number of trials ingested.
    """
    if not 0.0 < top_fraction <= 1.0:
        raise OptimizerError(f"top_fraction must be in (0, 1], got {top_fraction}")
    obj = optimizer.objective
    completed = [t for t in trials if t.status is TrialStatus.SUCCEEDED and obj.name in t.metrics]
    failed = [t for t in trials if t.status in (TrialStatus.FAILED, TrialStatus.ABORTED)]
    completed.sort(key=lambda t: obj.score(t.metric(obj.name)))
    n_top = max(1, int(np.ceil(len(completed) * top_fraction))) if completed else 0
    count = optimizer.warm_start(completed[:n_top])
    for t in failed:
        config = config_from_values(t.config.as_dict(), optimizer.space)
        optimizer.observe_failure(config, cost=t.cost, status=t.status)
        count += 1
    return count


@dataclass
class PriorRun:
    """One archived tuning run: where it ran and what it found."""

    workload: Workload
    trials: list[Trial]
    context: dict = field(default_factory=dict)  # e.g. VM size, engine version

    def signature(self) -> np.ndarray:
        return self.workload.signature()


class PriorBank:
    """An archive of prior tuning runs, searchable by workload similarity.

    This is the offline half of the workload-identification story: "systems
    with similar workloads can benefit from the same optimal config"
    (slide 88). Similarity is Euclidean distance between standardised
    workload signatures; plug in an embedding model for richer matching.
    """

    def __init__(self) -> None:
        self._runs: list[PriorRun] = []

    def add(self, run: PriorRun) -> None:
        self._runs.append(run)

    def _standardised_signatures(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        sigs = np.stack([r.signature() for r in self._runs])
        mean = sigs.mean(axis=0)
        std = sigs.std(axis=0)
        std[std <= 0] = 1.0
        return (sigs - mean) / std, mean, std

    def nearest(self, workload: Workload, k: int = 1) -> list[tuple[PriorRun, float]]:
        """The ``k`` most similar archived runs with their distances."""
        if not self._runs:
            raise OptimizerError("prior bank is empty")
        sigs, mean, std = self._standardised_signatures()
        query = (workload.signature() - mean) / std
        dists = np.linalg.norm(sigs - query, axis=1)
        order = np.argsort(dists)[: max(1, k)]
        return [(self._runs[i], float(dists[i])) for i in order]

    def warm_start(
        self,
        optimizer: Optimizer,
        workload: Workload,
        k: int = 1,
        max_distance: float | None = None,
    ) -> int:
        """Warm-start from the nearest compatible run(s).

        ``max_distance`` gates transfer: far-away workloads contribute only
        their *crashes* (which transfer everywhere), never their scores.
        """
        count = 0
        for run, dist in self.nearest(workload, k):
            trials = run.trials
            if max_distance is not None and dist > max_distance:
                trials = [t for t in trials if t.status is not TrialStatus.SUCCEEDED]
            count += warm_start_from_history(optimizer, trials)
        return count


def space_with_priors(space: ConfigurationSpace, priors: dict[str, Prior]) -> ConfigurationSpace:
    """A copy of ``space`` whose numeric knobs sample from the given priors."""
    new = ConfigurationSpace(f"{space.name}+priors")
    for param in space.parameters:
        clone = copy.copy(param)
        if param.name in priors:
            if not isinstance(param, _NumericParameter):
                raise OptimizerError(f"priors only apply to numeric knobs, not {param.name!r}")
            clone.prior = priors[param.name]
        new.add(clone)
    for cond in space.conditions:
        new.add_condition(cond)
    for con in space.constraints:
        new.add_constraint(con)
    return new


# ---------------------------------------------------------------------------
# VM-size changes (slide 67: "Just 2x everything? Maybe not.")
# ---------------------------------------------------------------------------

#: How a knob should respond to a VM resize.
#: - "memory": scales with the RAM ratio (caches, buffer pools — "Caches, OK")
#: - "cpu": scales with the vCPU ratio (thread/worker counts)
#: - "per_worker": memory *per worker* — scales with RAM ratio / CPU ratio
#:   ("join or sort buffers? depends on the workload")
#: - "fixed": independent of the VM shape
VM_SCALING_KINDS = ("memory", "cpu", "per_worker", "fixed")

#: Sensible categories for the simulated DBMS's knobs. Note wal_buffer_mb
#: is deliberately "fixed": it is a small fixed-cost buffer with a sweet
#: spot (~16-64 MB) independent of RAM — shrinking it proportionally on a
#: small box is exactly the "just 2x everything? maybe not" trap.
DBMS_VM_SCALING: dict[str, str] = {
    "buffer_pool_mb": "memory",
    "wal_buffer_mb": "fixed",
    "temp_buffers_mb": "memory",
    "worker_threads": "cpu",
    "parallel_workers": "cpu",
    "autovacuum_workers": "cpu",
    "work_mem_mb": "per_worker",
}


def scale_config_for_vm(
    config,
    space: ConfigurationSpace,
    ram_ratio: float,
    cpu_ratio: float,
    scaling: dict[str, str] | None = None,
):
    """Adapt a tuned configuration to a different VM shape.

    The slide's point is that naive "2× everything" is wrong: caches scale
    with RAM, worker counts with cores, and per-worker buffers with the
    *ratio* of the two. Knobs without a declared kind stay fixed. Values
    are clipped into the knob's domain, so an aggressive config on a small
    box degrades gracefully.
    """
    if ram_ratio <= 0 or cpu_ratio <= 0:
        raise OptimizerError("resize ratios must be positive")
    scaling = scaling if scaling is not None else DBMS_VM_SCALING
    for kind in scaling.values():
        if kind not in VM_SCALING_KINDS:
            raise OptimizerError(f"unknown scaling kind {kind!r}")
    factors = {
        "memory": ram_ratio,
        "cpu": cpu_ratio,
        "per_worker": ram_ratio / cpu_ratio,
        "fixed": 1.0,
    }
    values = dict(config)
    for name, kind in scaling.items():
        if name not in space or name not in values:
            continue
        param = space[name]
        if not param.is_numeric:
            continue
        scaled = float(values[name]) * factors[kind]
        scaled = min(param.upper, max(param.lower, scaled))
        values[name] = param.from_unit(param.to_unit(scaled))
    return space.make(values, check_constraints=False)
