"""Every tell reaches the state that asked for it.

A suggestion's memo (a CMA-ES sample, a particle, an ensemble member, a
latent point, a rung, an observation) is kept by the ``Optimizer`` base
class under the suggested configuration and handed back with that
configuration's tell. These tests drive every registered optimizer, plus the
ensemble, the genetic algorithm, ``ProjectedOptimizer`` and
``OnlinePolicyOptimizer``, the two ways tells arrive out of order: trials
kept in flight on simulated machines whose run time grows with the
configuration, and batch asks told back shuffled, as service clients do.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Objective, TrialReport, TuningSession
from repro.core.manager import make_optimizer, optimizer_names
from repro.execution import SimulatedClockExecutor
from repro.online import GeneticAlgorithmOptimizer, GreedyOnlineTuner, OnlinePolicyOptimizer
from repro.optimizers import (
    CMAESOptimizer,
    EnsembleOptimizer,
    ParticleSwarmOptimizer,
    ProjectedOptimizer,
    RandomSearchOptimizer,
)
from repro.space import ConfigurationSpace, FloatParameter
from repro.space.adapters import LlamaTuneAdapter

TRIALS = 32
WIDTH = 4


def plane(n=2):
    space = ConfigurationSpace("plane", seed=0)
    for i in range(n):
        space.add(FloatParameter(f"x{i}", 0.0, 1.0, default=0.5))
    return space


def score(config):
    return sum((config[name] - 0.3) ** 2 for name in config)


def evaluate(config):
    """The quadratic, on a machine whose run time grows with ``x0``."""
    return score(config), 1.0 + 10.0 * config["x0"]


def build(name):
    space, objective = plane(), Objective("score")
    if name == "ensemble":
        members = {
            "cmaes": lambda s: CMAESOptimizer(s, seed=1),
            "pso": lambda s: ParticleSwarmOptimizer(s, n_particles=4, seed=2),
            "random": lambda s: RandomSearchOptimizer(s, seed=3),
        }
        return EnsembleOptimizer(space, members, objectives=objective, seed=0)
    if name == "projected":
        adapter = LlamaTuneAdapter(plane(4), d=2, n_buckets=4, seed=0)
        return ProjectedOptimizer(adapter, lambda s: CMAESOptimizer(s, seed=0), objectives=objective, seed=0)
    if name == "ga":
        return GeneticAlgorithmOptimizer(space, population_size=6, objectives=objective, seed=0)
    if name == "online":
        return OnlinePolicyOptimizer(space, GreedyOnlineTuner(space, seed=0), objectives=objective, seed=0)
    options = {"bo": {"n_init": 4, "n_candidates": 64}, "smac": {"n_init": 4, "n_candidates": 64},
               "grid": {"points_per_dim": 6}}.get(name, {})
    return make_optimizer(name, space, objective, seed=0, options=options)


#: The optimizers whose suggestions carry a memo.
MEMOS = {"cmaes", "pso", "hyperband", "ensemble", "ga", "projected", "online"}
NAMES = [*optimizer_names(), "ensemble", "ga", "projected", "online"]


def spy(opt):
    """Record every (configuration, memo) suggested and every one told."""
    made, told = [], []
    remember, on_observe = opt._remember, opt._on_observe

    def _remember(suggestion):
        config = remember(suggestion)
        if isinstance(suggestion, tuple):
            made.append((config, suggestion[1]))
        return config

    def _on_observe(trial, memo):
        told.append((trial.config, memo))
        on_observe(trial, memo)

    opt._remember, opt._on_observe = _remember, _on_observe
    return made, told


def in_flight(opt):
    TuningSession(opt, evaluate, max_trials=TRIALS, executor=SimulatedClockExecutor(WIDTH)).run()


def shuffled_service(opt):
    session, rng = TuningSession(opt, None, max_trials=TRIALS), np.random.default_rng(0)
    while not session.is_complete:
        suggestions = session.ask(count=WIDTH)
        for k in rng.permutation(len(suggestions)):
            s = suggestions[k]
            session.tell(TrialReport(config=s.config, metrics={"score": score(s.config)}, ask_id=s.ask_id))


DRIVES = {"in-flight": in_flight, "shuffled-service": shuffled_service}


@pytest.mark.parametrize("drive", sorted(DRIVES))
@pytest.mark.parametrize("name", NAMES)
def test_every_tell_gets_the_memo_of_its_own_suggestion(name, drive):
    if name == "hyperband" and drive == "in-flight":
        pytest.skip("run() refuses an optimizer that proposes fidelities; it is driven by ask/tell")
    opt = build(name)
    made, told = spy(opt)
    DRIVES[drive](opt)
    assert len(told) == TRIALS
    unclaimed = list(made)
    for config, memo in told:
        if memo is None:
            continue
        mine = next((k for k, (c, m) in enumerate(unclaimed) if m is memo and c == config), None)
        assert mine is not None, f"{name}: a memo reached a tell of another configuration, or came back twice"
        del unclaimed[mine]
    # Every suggestion was told, so every memo came back, and the map is empty.
    assert not unclaimed and not opt._memos
    assert bool(made) == (name in MEMOS)


def told_pairs(opt):
    obj = opt.objective
    return [(t.config, obj.score(t.metric(obj.name))) for t in opt.history]


def check_cmaes(opt):
    """Each buffered (sample, score) of the population is one told trial's."""
    pairs = told_pairs(opt)
    for x, value in opt._results:
        assert (opt.space.from_unit_array(x), value) in pairs


def check_pso(opt):
    """Each particle's and the swarm's best position scored what it records."""
    pairs = told_pairs(opt)
    best = [(pos, value) for pos, value in zip(opt.pbest_pos, opt.pbest_score) if np.isfinite(value)]
    if np.isfinite(opt.gbest_score):
        best.append((opt.gbest_pos, opt.gbest_score))
    for pos, value in best:
        assert (opt.space.from_unit_array(np.clip(pos, 0.0, 1.0)), value) in pairs


@pytest.mark.parametrize("drive", sorted(DRIVES))
@pytest.mark.parametrize("name, check", [("cmaes", check_cmaes), ("pso", check_pso)])
def test_population_state_pairs_each_sample_with_its_own_score(name, check, drive):
    """The state-level consequence, checked after every tell: a sample is
    ranked, and a particle's best recorded, with the score it earned."""
    opt = build(name)
    observe = opt.observe

    def checked_observe(*args, **kwargs):
        trial = observe(*args, **kwargs)
        check(opt)
        return trial

    opt.observe = checked_observe
    DRIVES[drive](opt)
    assert len(opt.history) == TRIALS
