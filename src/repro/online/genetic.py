"""Genetic-algorithm tuning (HUNTER's engine, slide 81).

A steady population of configurations evolves by tournament selection,
uniform crossover, and neighbourhood mutation. Offline it is a plain ask/tell
optimizer; online (``objectives=REWARD``) the agent drives it directly, one
individual per production step — HUNTER's hybrid pattern of trying
candidates on cloned instances maps to evaluating them on successive steps
here.
"""

from __future__ import annotations

from ..core import Objective, Optimizer, Trial
from ..exceptions import OptimizerError, SpaceError
from ..space import Configuration, ConfigurationSpace

__all__ = ["GeneticAlgorithmOptimizer"]

#: Per-individual probability of a mutation after crossover.
MUTATION_RATE = 0.3
#: Neighbourhood size of a mutation in unit-space.
MUTATION_SCALE = 0.15
#: Tournament size for parent selection.
TOURNAMENT = 3


class GeneticAlgorithmOptimizer(Optimizer):
    """Generational GA over configurations.

    Parameters
    ----------
    population_size:
        Individuals per generation.
    elite_fraction:
        Top fraction copied unchanged into the next generation.
    """

    def __init__(
        self,
        space: ConfigurationSpace,
        population_size: int = 12,
        elite_fraction: float = 0.25,
        objectives: Objective | list[Objective] | None = None,
        seed: int | None = None,
    ) -> None:
        super().__init__(space, objectives, seed=seed)
        if population_size < 4:
            raise OptimizerError(f"population_size must be >= 4, got {population_size}")
        if not 0.0 < elite_fraction < 1.0:
            raise OptimizerError(f"elite_fraction must be in (0, 1), got {elite_fraction}")
        self.population_size = int(population_size)
        self.elite_fraction = float(elite_fraction)
        self._population: list[Configuration] = [space.sample(self.rng) for _ in range(self.population_size)]
        self._scores: list[float | None] = [None] * self.population_size
        self._cursor = 0
        self.generation = 0

    # -- genetic operators -----------------------------------------------------
    def _crossover(self, a: Configuration, b: Configuration) -> Configuration:
        values = {}
        for name in self.space.names:
            values[name] = a[name] if self.rng.random() < 0.5 else b[name]
        try:
            return self.space.make(values)
        except SpaceError:
            return a  # infeasible child: keep a parent

    def _mutate(self, config: Configuration) -> Configuration:
        if self.rng.random() >= MUTATION_RATE:
            return config
        return self.space.neighbor(config, self.rng, scale=MUTATION_SCALE)

    def _tournament_pick(self, scored: list[tuple[float, Configuration]]) -> Configuration:
        contenders = [scored[int(self.rng.integers(len(scored)))] for _ in range(TOURNAMENT)]
        return min(contenders, key=lambda pair: pair[0])[1]  # a tie keeps the first drawn

    def _evolve(self) -> None:
        scored = sorted(
            [(s, c) for s, c in zip(self._scores, self._population) if s is not None],
            key=lambda pair: pair[0],
        )
        if len(scored) < 2:
            return
        n_elite = max(1, int(self.population_size * self.elite_fraction))
        next_pop = [c for _, c in scored[:n_elite]]
        while len(next_pop) < self.population_size:
            child = self._crossover(self._tournament_pick(scored), self._tournament_pick(scored))
            next_pop.append(self._mutate(child))
        self._population = next_pop
        self._scores = [None] * self.population_size
        self._cursor = 0
        self.generation += 1

    # -- ask/tell -----------------------------------------------------------------
    def _suggest(self) -> tuple[Configuration, tuple[int, int]]:
        if self._cursor >= self.population_size:
            self._evolve()
        idx = self._cursor
        self._cursor += 1
        return self._population[idx], (self.generation, idx)

    def _on_observe(self, trial: Trial, memo: tuple[int, int] | None) -> None:
        if memo is None or memo[0] != self.generation:
            return  # foreign, or scores an individual of a generation already replaced
        obj = self.objective
        self._scores[memo[1]] = obj.score(trial.metric(obj.name))

