"""Particle swarm optimization (slide 50's third black-box family).

A swarm of particles moves through the unit-encoded space, each attracted
to its personal best and the global best (Gad 2022's canonical update with
inertia). Ask/tell: one round evaluates every particle once, then
velocities update.
"""

from __future__ import annotations

import numpy as np

from ..core import Objective, Optimizer, Trial
from ..exceptions import OptimizerError
from ..space import Configuration, ConfigurationSpace

__all__ = ["ParticleSwarmOptimizer"]

#: Velocity persistence w.
INERTIA = 0.7
#: Attraction strengths toward personal (c1) and global (c2) bests.
COGNITIVE = SOCIAL = 1.5
#: Velocity clamp in unit-cube units.
V_MAX = 0.25


class ParticleSwarmOptimizer(Optimizer):
    """Canonical PSO with inertia weight.

    Parameters
    ----------
    n_particles:
        Swarm size.
    """

    def __init__(
        self,
        space: ConfigurationSpace,
        n_particles: int = 12,
        objectives: Objective | list[Objective] | None = None,
        seed: int | None = None,
    ) -> None:
        super().__init__(space, objectives, seed=seed)
        if n_particles < 2:
            raise OptimizerError(f"need at least 2 particles, got {n_particles}")
        self.n_particles = int(n_particles)

        n = space.n_dims
        self.positions = self.rng.random((self.n_particles, n))
        self.velocities = self.rng.uniform(-V_MAX, V_MAX, (self.n_particles, n))
        self.pbest_pos = self.positions.copy()
        self.pbest_score = np.full(self.n_particles, np.inf)
        self.gbest_pos = self.positions[0].copy()
        self.gbest_score = np.inf

        self._cursor = 0  # particle to evaluate next
        self._told = 0  # tells of this swarm's own suggestions

    def _suggest(self) -> tuple[Configuration, tuple[int, np.ndarray]]:
        idx = self._cursor
        self._cursor = (self._cursor + 1) % self.n_particles
        if idx == 0 and self._told >= self.n_particles:
            self._advance_swarm()
        position = self.positions[idx].copy()
        return self.space.from_unit_array(np.clip(position, 0.0, 1.0)), (idx, position)

    def _advance_swarm(self) -> None:
        r1 = self.rng.random(self.positions.shape)
        r2 = self.rng.random(self.positions.shape)
        self.velocities = (
            INERTIA * self.velocities
            + COGNITIVE * r1 * (self.pbest_pos - self.positions)
            + SOCIAL * r2 * (self.gbest_pos[None, :] - self.positions)
        )
        np.clip(self.velocities, -V_MAX, V_MAX, out=self.velocities)
        self.positions = np.clip(self.positions + self.velocities, 0.0, 1.0)

    def _on_observe(self, trial: Trial, memo: tuple[int, np.ndarray] | None) -> None:
        if memo is None:
            return  # not suggested by this swarm (warm start, an ensemble sibling's): no particle attached
        self._told += 1
        idx, position = memo
        obj = self.objective
        score = obj.score(trial.metric(obj.name))
        if score < self.pbest_score[idx]:
            self.pbest_score[idx] = score
            self.pbest_pos[idx] = position
        if score < self.gbest_score:
            self.gbest_score = score
            self.gbest_pos = position

    def _digest_state(self) -> dict[str, object]:
        return {
            "cursor": self._cursor,
            "pending": [memo[0] for _, memo in self._untold.values()],
            "gbest_score": None if self.gbest_score == np.inf else round(float(self.gbest_score), 12),
        }
