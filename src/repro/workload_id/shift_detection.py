"""Workload-shift detection (slide 92: "identify changes in workload over
time").

Two detectors over an embedding stream:

* :class:`WindowShiftDetector` — compares the current sliding window's mean
  embedding against a frozen reference window; alarms when the distance
  exceeds a z-score threshold calibrated on the reference's spread.
* :class:`PageHinkleyDetector` — the classic sequential change-point test
  on a scalar drift statistic.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..exceptions import ReproError
from ..telemetry.spans import emit_event

__all__ = ["WindowShiftDetector", "PageHinkleyDetector"]


class WindowShiftDetector:
    """Reference-vs-sliding-window distance test on embedding vectors.

    Parameters
    ----------
    reference_size:
        Observations used to freeze the reference distribution.
    window:
        Sliding window length compared against the reference.
    threshold_z:
        Alarm when the window-mean distance exceeds mean + z·std of the
        reference self-distances.
    """

    #: Steps to suppress repeated alarms after one fires (the detector
    #: re-references on alarm).
    COOLDOWN = 10

    def __init__(
        self,
        reference_size: int = 20,
        window: int = 8,
        threshold_z: float = 4.0,
    ) -> None:
        if reference_size < 4 or window < 2:
            raise ReproError("reference_size must be >= 4 and window >= 2")
        self.reference_size = int(reference_size)
        self.window = int(window)
        self.threshold_z = float(threshold_z)
        self._reference: list[np.ndarray] = []
        self._window: deque[np.ndarray] = deque(maxlen=self.window)
        self._ref_mean: np.ndarray | None = None
        self._dist_mean = 0.0
        self._dist_std = 1.0
        self._cooldown_left = 0
        self.alarms: list[int] = []
        self._step = -1

    def _freeze_reference(self) -> None:
        R = np.stack(self._reference)
        self._ref_mean = R.mean(axis=0)
        dists = np.linalg.norm(R - self._ref_mean, axis=1)
        self._dist_mean = float(dists.mean())
        self._dist_std = float(dists.std()) or 1e-6

    def update(self, embedding: np.ndarray) -> bool:
        """Feed one embedding; returns True when a shift alarm fires."""
        self._step += 1
        embedding = np.asarray(embedding, dtype=float)
        if self._ref_mean is None:
            self._reference.append(embedding)
            if len(self._reference) >= self.reference_size:
                self._freeze_reference()
            return False
        self._window.append(embedding)
        if self._cooldown_left > 0:
            self._cooldown_left -= 1
            return False
        if len(self._window) < self.window:
            return False
        window_mean = np.stack(self._window).mean(axis=0)
        dist = float(np.linalg.norm(window_mean - self._ref_mean))
        z = (dist - self._dist_mean) / self._dist_std
        if z > self.threshold_z:
            self.alarms.append(self._step)
            self._cooldown_left = self.COOLDOWN
            emit_event(
                "workload.shift", severity="warning",
                message=f"window distance z={z:.2f} exceeded threshold {self.threshold_z:g}",
                detector="window", step=self._step, z=float(z),
            )
            # Re-reference on the new regime.
            self._reference = list(self._window)
            self._window.clear()
            self._freeze_reference()
            return True
        return False


class PageHinkleyDetector:
    """Page–Hinkley sequential test on a scalar statistic."""

    #: Observations after a (re)start during which no alarm fires.
    BURN_IN = 10

    def __init__(self, delta: float = 0.02, threshold: float = 1.0) -> None:
        if threshold <= 0:
            raise ReproError(f"threshold must be positive, got {threshold}")
        self.delta = float(delta)
        self.threshold = float(threshold)
        self._mean = 0.0
        self._n = 0
        self._cum = 0.0
        self._min_cum = 0.0
        self.alarms: list[int] = []

    def update(self, value: float) -> bool:
        self._n += 1
        self._mean += (value - self._mean) / self._n
        self._cum += value - self._mean - self.delta
        self._min_cum = min(self._min_cum, self._cum)
        if self._n <= self.BURN_IN:
            return False
        if self._cum - self._min_cum > self.threshold:
            self.alarms.append(self._n - 1)
            emit_event(
                "workload.shift", severity="warning",
                message=f"Page-Hinkley statistic exceeded threshold {self.threshold:g}",
                detector="page_hinkley", step=self._n - 1,
                statistic=float(self._cum - self._min_cum),
            )
            self._n = 0
            self._mean = 0.0
            self._cum = 0.0
            self._min_cum = 0.0
            return True
        return False
