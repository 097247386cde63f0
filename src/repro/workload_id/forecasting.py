"""Workload forecasting — acting *before* the shift arrives.

The tutorial's future-work slide points at time-series foundation models
(MOIRAI, Chronos) for workload understanding; the classical core of that
idea is already useful: forecast the diurnal load curve and let a
proactive policy apply the configuration the *upcoming* load needs,
instead of reacting a step late.

:class:`SeasonalForecaster` combines a seasonal-naive component (yesterday
at the same time) with an AR(1) correction on the residual — tiny, robust,
and exactly what capacity planners actually run first.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import NotFittedError, ReproError

__all__ = ["SeasonalForecaster"]


class SeasonalForecaster:
    """Seasonal-naive + AR(1)-residual forecaster for scalar load series.

    Parameters
    ----------
    period:
        Season length in steps (e.g. 24 for hourly data with a daily cycle).
    """

    def __init__(self, period: int) -> None:
        if period < 2:
            raise ReproError(f"period must be >= 2, got {period}")
        self.period = int(period)
        self._history: list[float] = []
        self._phi = 0.0  # AR(1) coefficient on seasonal residuals
        self._resid_std = 0.0

    # -- online updates -----------------------------------------------------
    def update(self, value: float) -> None:
        """Append one observation (call once per step)."""
        self._history.append(float(value))
        if len(self._history) >= 2 * self.period:
            self._refit()

    def fit(self, series: np.ndarray) -> "SeasonalForecaster":
        """Bulk-load a history."""
        for v in np.asarray(series, dtype=float).ravel():
            self._history.append(float(v))
        if len(self._history) < 2 * self.period:
            raise ReproError(f"need at least {2 * self.period} observations")
        self._refit()
        return self

    def _residuals(self) -> np.ndarray:
        h = np.asarray(self._history)
        return h[self.period:] - h[:-self.period]

    def _refit(self) -> None:
        r = self._residuals()
        if len(r) >= 3:
            num = float(r[1:] @ r[:-1])
            den = float(r[:-1] @ r[:-1])
            self._phi = 0.0 if den <= 1e-12 else float(np.clip(num / den, -0.99, 0.99))
            self._resid_std = float(np.std(r[1:] - self._phi * r[:-1]))

    @property
    def is_fitted(self) -> bool:
        return len(self._history) >= 2 * self.period

    # -- forecasting ----------------------------------------------------------
    def forecast(self, horizon: int = 1) -> np.ndarray:
        """Point forecasts for the next ``horizon`` steps."""
        if not self.is_fitted:
            raise NotFittedError(f"need {2 * self.period} observations before forecasting")
        if horizon < 1:
            raise ReproError(f"horizon must be >= 1, got {horizon}")
        h = list(self._history)
        last_resid = self._residuals()[-1]
        out = []
        for step in range(1, horizon + 1):
            seasonal = h[len(h) - self.period + (step - 1)] if step <= self.period else out[step - self.period - 1]
            resid = last_resid * (self._phi ** step)
            out.append(float(seasonal + resid))
        return np.array(out)

    def detect_anomaly(self, value: float) -> bool:
        """Is the next observation more than 3 residual sigmas off the forecast?

        A cheap workload-shift signal that complements the embedding-based
        detectors in :mod:`repro.workload_id.shift_detection`.
        """
        if not self.is_fitted or self._resid_std <= 0:
            return False
        expected = self.forecast(1)[0]
        return abs(value - expected) > 3.0 * self._resid_std
