"""Parallel trial execution (simulated wall clock) — slide 57.

"Optimizer suggests many configurations at once. Synchronous: always
suggest k points, batch execute trials. Asynchronous: suggest 1 point at a
time, track up to k in-progress configurations."

:class:`ParallelRunner` simulates a pool of ``n_workers`` benchmark
machines: each trial has a duration (its cost), and the runner advances a
virtual clock, so experiments can compare wall-clock speedups and
sample-efficiency penalties of batching without real concurrency.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

from ..core import Optimizer
from ..core.evaluation import EvaluationResult, observe_evaluation, run_evaluation
from ..core.result import TuningResult
from ..exceptions import OptimizerError
from ..space import Configuration

__all__ = ["ParallelRunner", "ParallelResult"]


@dataclass
class ParallelResult:
    """Outcome of a (simulated) parallel tuning run."""

    result: TuningResult
    wall_clock_s: float
    n_workers: int
    mode: str


class ParallelRunner:
    """Runs an optimizer against an evaluator on ``n_workers`` simulated
    machines.

    Parameters
    ----------
    optimizer:
        Any ask/tell optimizer. Batch modes exploit optimizers whose
        ``suggest(n)`` diversifies (e.g. BO's constant liar).
    evaluator:
        ``config -> (metrics, duration_s)``; crashes and aborts it raises
        are folded by :func:`repro.core.evaluation.run_evaluation` (1 s on
        the worker, or the cost a censored abort reports).
    n_workers:
        Pool size k.
    mode:
        "serial", "sync" (suggest k, barrier), or "async" (refill each
        worker the moment it frees up).
    """

    def __init__(
        self,
        optimizer: Optimizer,
        evaluator: Callable[[Configuration], tuple],
        n_workers: int = 4,
        mode: str = "async",
    ) -> None:
        if n_workers < 1:
            raise OptimizerError(f"n_workers must be >= 1, got {n_workers}")
        if mode not in ("serial", "sync", "async"):
            raise OptimizerError(f"mode must be serial|sync|async, got {mode!r}")
        self.optimizer = optimizer
        self.evaluator = evaluator
        self.n_workers = 1 if mode == "serial" else int(n_workers)
        self.mode = mode

    def run(self, max_trials: int) -> ParallelResult:
        if max_trials < 1:
            raise OptimizerError(f"max_trials must be >= 1, got {max_trials}")
        if self.mode in ("serial", "sync"):
            wall = self._run_sync(max_trials)
        else:
            wall = self._run_async(max_trials)
        result = TuningResult.from_history(self.optimizer.history)
        return ParallelResult(result, wall, self.n_workers, self.mode)

    def _run_sync(self, max_trials: int) -> float:
        wall = 0.0
        remaining = max_trials
        while remaining > 0:
            batch = min(self.n_workers, remaining)
            configs = self.optimizer.suggest(batch)
            results = [run_evaluation(self.evaluator, c) for c in configs]
            # Barrier: the batch takes as long as its slowest trial.
            wall += max(r.cost for r in results)
            for config, result in zip(configs, results):
                observe_evaluation(self.optimizer, config, result)
            remaining -= batch
        return wall

    def _run_async(self, max_trials: int) -> float:
        # Event-driven simulation: a heap of (finish_time, seq, config, result).
        clock = 0.0
        seq = 0
        in_flight: list[tuple[float, int, Configuration, EvaluationResult]] = []
        started = 0

        def launch(at: float) -> None:
            nonlocal seq, started
            config = self.optimizer.suggest(1)[0]
            result = run_evaluation(self.evaluator, config)
            heapq.heappush(in_flight, (at + result.cost, seq, config, result))
            seq += 1
            started += 1

        while started < min(self.n_workers, max_trials):
            launch(clock)
        while in_flight:
            finish, _, config, result = heapq.heappop(in_flight)
            clock = finish
            observe_evaluation(self.optimizer, config, result)
            if started < max_trials:
                launch(clock)
        return clock
