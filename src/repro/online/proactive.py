"""Proactive online tuning: forecast the load, switch configs *before* it
arrives.

Reactive agents pay one bad step per shift; with a diurnal workload (the
common cloud case) the load curve is predictable, so the agent can apply
the configuration the *next* step needs. The policy:

1. forecast the next step's load with a
   :class:`~repro.workload_id.forecasting.SeasonalForecaster`;
2. bucket loads into bands; keep a per-band incumbent configuration,
   refined online by a tuning sub-policy (one knob world per band);
3. propose the forecast band's incumbent (explore within the band with a
   small probability).
"""

from __future__ import annotations

import numpy as np

from ..core.optimizer import Trial
from ..exceptions import ReproError
from ..space import Configuration, ConfigurationSpace
from ..workload_id.forecasting import SeasonalForecaster
from .agent import OnlinePolicy

__all__ = ["ProactiveForecastTuner"]

#: Which observation-vector entry carries the load signal (the default
#: observation's index 0 is log-concurrency).
LOAD_INDEX = 0


class ProactiveForecastTuner(OnlinePolicy):
    """Per-load-band incumbents, selected by a seasonal forecast.

    A proposal's memo is the band it was proposed for.

    Parameters
    ----------
    n_bands:
        Number of load bands (each with its own incumbent config).
    period:
        Seasonality of the load signal, in agent steps.
    explore_prob:
        Probability of probing a neighbour of the band incumbent instead
        of exploiting it.
    """

    def __init__(
        self,
        space: ConfigurationSpace,
        period: int,
        n_bands: int = 3,
        explore_prob: float = 0.3,
        seed: int | None = None,
    ) -> None:
        if n_bands < 2:
            raise ReproError(f"need >= 2 load bands, got {n_bands}")
        if not 0.0 <= explore_prob <= 1.0:
            raise ReproError(f"explore_prob must be in [0, 1], got {explore_prob}")
        super().__init__(space, seed=seed)
        self.n_bands = int(n_bands)
        self.explore_prob = float(explore_prob)
        self.forecaster = SeasonalForecaster(period=period)
        self._loads: list[float] = []
        default = space.default_configuration()
        self._incumbent = [default for _ in range(self.n_bands)]
        self._incumbent_reward = [-np.inf] * self.n_bands

    # -- load banding -----------------------------------------------------------
    def _band_of(self, load: float) -> int:
        if len(self._loads) < 8:
            return 0
        lo, hi = np.min(self._loads), np.max(self._loads)
        if hi <= lo:
            return 0
        frac = (load - lo) / (hi - lo)
        return int(np.clip(frac * self.n_bands, 0, self.n_bands - 1))

    def _predicted_load(self, current: float) -> float:
        if self.forecaster.is_fitted:
            return float(self.forecaster.forecast(1)[0])
        return current

    # -- OnlinePolicy ------------------------------------------------------------
    def propose(self, observation: np.ndarray) -> tuple[Configuration, int]:
        load = float(np.asarray(observation).ravel()[LOAD_INDEX])
        self._loads.append(load)
        self.forecaster.update(load)
        band = self._band_of(self._predicted_load(load))
        incumbent = self._incumbent[band]
        if self.rng.random() < self.explore_prob:
            candidate = self.space.neighbor(incumbent, self.rng, scale=0.15)
        else:
            candidate = incumbent
        return candidate, band

    def feedback(self, trial: Trial, band: int, reward: float) -> None:
        if reward > self._incumbent_reward[band]:
            self._incumbent[band] = trial.config
            self._incumbent_reward[band] = reward
        else:
            # Incumbent estimates decay slowly so stale bests get re-earned.
            self._incumbent_reward[band] *= 0.995 if self._incumbent_reward[band] > 0 else 1.005

    @property
    def band_incumbents(self) -> list[Configuration]:
        return list(self._incumbent)
