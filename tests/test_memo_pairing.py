"""Every tell reaches the state that asked for it.

A suggestion's memo (a CMA-ES sample, a particle, an ensemble member, a
latent point, a rung, a bandit arm, an online technique's proposal state) is kept by the
``Optimizer`` base class under the suggestion's number and handed back with
the tell that names that number: a session's ask id, an in-flight trial's
or a replayed record's suggestion. These tests drive every registered
optimizer, plus the ensemble, the genetic algorithm, ``ProjectedOptimizer``,
the multi-armed bandit and every online technique, the two ways tells arrive out of order: trials
kept in flight on simulated machines whose run time grows with the
configuration, and batch asks told back shuffled, as service clients do.
On a space of four configurations, where equal ones are pending together,
each tell must still get its own suggestion's memo, not the oldest equal
configuration's.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Objective, TrialReport, TuningSession
from repro.core.manager import make_optimizer, optimizer_names
from repro.execution import SimulatedClockExecutor
from repro.online import (
    ActorCriticTuner,
    ContextualBayesianOptimizer,
    GeneticAlgorithmOptimizer,
    GreedyOnlineTuner,
    HybridBanditTuner,
    ProactiveForecastTuner,
    QLearningTuner,
)
from repro.optimizers import (
    CMAESOptimizer,
    EnsembleOptimizer,
    MultiArmedBanditOptimizer,
    ParticleSwarmOptimizer,
    ProjectedOptimizer,
    RandomSearchOptimizer,
)
from repro.space import CategoricalParameter, ConfigurationSpace, FloatParameter, IntegerParameter
from repro.space.adapters import LlamaTuneAdapter

TRIALS = 32
WIDTH = 4


def plane(n=2):
    space = ConfigurationSpace("plane", seed=0)
    for i in range(n):
        space.add(FloatParameter(f"x{i}", 0.0, 1.0, default=0.5))
    return space


def corners():
    """Four configurations: a batch of asks holds equal ones."""
    space = ConfigurationSpace("corners", seed=0)
    for i in range(2):
        space.add(IntegerParameter(f"x{i}", 0, 1, default=0))
    return space


def score(config):
    return sum((config[name] - 0.3) ** 2 for name in config)


def evaluate(config, fidelity=None):
    """The quadratic, on a machine whose run time grows with ``x0`` (Hyperband
    hands each trial its rung's budget, which the quadratic ignores)."""
    return score(config), 1.0 + 10.0 * config["x0"]


#: Every online technique, driven directly: each learns the ``reward`` metric.
ONLINE = {
    "qlearning": lambda s: QLearningTuner(s, seed=0),
    "actor-critic": lambda s: ActorCriticTuner(s, seed=0),
    "hybrid": lambda s: HybridBanditTuner(s, seed=0),
    "greedy": lambda s: GreedyOnlineTuner(s, seed=0),
    "proactive": lambda s: ProactiveForecastTuner(s, period=4, explore_prob=0.5, seed=0),
    "contextual-bo": lambda s: ContextualBayesianOptimizer(s, n_init=4, n_candidates=32, seed=0),
}


def build(name, space=None):
    space, objective = space or plane(), Objective("score")
    if name in ONLINE:
        return ONLINE[name](space)
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
    if name == "bandit":
        return MultiArmedBanditOptimizer(space, n_arms=6, objectives=objective, seed=0)
    options = {"bo": {"n_init": 4, "n_candidates": 64}, "smac": {"n_init": 4, "n_candidates": 64},
               "grid": {"points_per_dim": 6}}.get(name, {})
    return make_optimizer(name, space, objective, seed=0, options=options)


#: The optimizers whose suggestions carry a memo.
MEMOS = {"cmaes", "pso", "hyperband", "ensemble", "ga", "projected", "bandit", *ONLINE}
NAMES = [*optimizer_names(), "ensemble", "ga", "projected", "bandit", *ONLINE]


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
            session.tell(TrialReport(config=s.config, metrics={opt.objective.name: score(s.config)}, ask_id=s.ask_id))


DRIVES = {"in-flight": in_flight, "shuffled-service": shuffled_service}


@pytest.mark.parametrize("drive", sorted(DRIVES))
@pytest.mark.parametrize("name", NAMES)
def test_every_tell_gets_the_memo_of_its_own_suggestion(name, drive):
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
    # Every suggestion was told, so every memo came back, and the table is empty.
    assert not unclaimed and not opt._untold
    assert bool(made) == (name in MEMOS)


def spy_numbers(opt):
    """Per tell, the memo made for the suggestion it names and the memo it got."""
    made, named, told = [], [], []
    remember, ingest, on_observe = opt._remember, opt._ingest, opt._on_observe

    def _remember(suggestion):
        made.append(suggestion[1])  # suggestion k's memo, k counted in suggest order
        return remember(suggestion)

    def _ingest(*args):
        named.append(args[-1])
        return ingest(*args)

    def _on_observe(trial, memo):
        told.append((made[named[-1]], memo))
        on_observe(trial, memo)

    opt._remember, opt._ingest, opt._on_observe = _remember, _ingest, _on_observe
    return told


@pytest.mark.parametrize("drive", sorted(DRIVES))
@pytest.mark.parametrize("name", ["ga", "pso", "hyperband", "bandit"])
def test_equal_configurations_pending_together_keep_their_own_memos(name, drive):
    opt = build(name, corners())
    told = spy_numbers(opt)
    DRIVES[drive](opt)
    assert len(told) == TRIALS and not opt._untold
    for own, memo in told:
        assert memo is own, f"{name}: a tell got the memo of another suggestion of an equal configuration"


def test_each_ask_hands_out_its_own_rungs_budget():
    """Hyperband on one two-valued knob: twelve asks hold the nine budget-1
    suggestions of the first bracket and three budget-3 ones of the next, so
    equal configurations sit in both rungs. Each ask's fidelity is its own
    rung's budget, and told at it, each trial is ranked in its rung."""
    space = ConfigurationSpace("knob", seed=0)
    space.add(CategoricalParameter("k", ["x", "y"]))
    options = {"max_budget": 9, "min_budget": 1}
    opt = make_optimizer("hyperband", space, Objective("score"), seed=3, options=options)
    session = TuningSession(opt, None, max_trials=12)
    suggestions = session.ask(count=12)
    assert [s.fidelity for s in suggestions] == [1.0] * 9 + [3.0] * 3
    assert [s.fidelity for s in suggestions] == [opt.untold(s.ask_id)[1][0] for s in suggestions]
    for k in np.random.default_rng(0).permutation(12):
        s = suggestions[k]
        session.tell(TrialReport(config=s.config, metrics={"score": float(k)}, fidelity=s.fidelity, ask_id=s.ask_id))
    second = opt._brackets[1]  # its budget-3 rung waits on two more suggestions
    assert second.rung == 0 and len(second.results) == 3
    assert all(np.isfinite(score) for score, _ in second.results)


def test_each_bandit_pull_credits_the_arm_pulled():
    """Six arms sampled from a three-valued knob hold equal ones. Each tell
    credits the arm its suggestion pulled: every arm is pulled, so ``c`` is
    tried, and the best choice ``b`` ends best, not the worst, ``a``."""
    space = ConfigurationSpace("knob", seed=0)
    space.add(CategoricalParameter("k", ["a", "b", "c"]))
    opt = MultiArmedBanditOptimizer(space, n_arms=6, objectives=Objective("loss"), seed=0)
    assert [arm["k"] for arm in opt.arms] == ["b", "a", "a", "a", "c", "c"]
    loss = {"a": 3.0, "b": 1.0, "c": 2.0}
    for _ in range(60):
        (config,) = opt.suggest()
        opt.observe(config, {"loss": loss[config["k"]]})
    pulls = [s.pulls for s in opt.stats]
    assert min(pulls) >= 1 and pulls[0] == max(pulls)
    assert opt.best_arm()["k"] == "b"


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


def check_proactive(opt, number):
    """A band adopts an incumbent only with the reward told for that same configuration."""
    before = list(opt._incumbent_reward)

    def after(trial):
        for band, reward in enumerate(opt._incumbent_reward):
            if reward > before[band]:
                assert (opt._incumbent[band], reward) == (trial.config, trial.metric("reward"))

    return after


def check_greedy(opt, number):
    """A move is judged on its own tell, once, and adopted with its own reward."""
    _, is_move = opt.untold(number)  # what this tell will receive: a move, or an incumbent measurement
    verdicts, adopted = opt.moves_adopted + opt.moves_reverted, opt.moves_adopted

    def after(trial):
        assert opt.moves_adopted + opt.moves_reverted == verdicts + is_move
        if opt.moves_adopted > adopted:
            assert (opt.current, opt._current_reward) == (trial.config, trial.metric("reward"))

    return after


@pytest.mark.parametrize("drive", sorted(DRIVES))
@pytest.mark.parametrize("name, check", [("proactive", check_proactive), ("greedy", check_greedy)])
def test_online_state_pairs_each_proposal_with_its_own_reward(name, check, drive):
    """The state-level consequence for the online techniques that keep an
    incumbent, checked around every tell."""
    opt = build(name)
    observe = opt.observe

    def checked_observe(config, *args, **kwargs):
        after = check(opt, kwargs["suggestion"])
        trial = observe(config, *args, **kwargs)
        after(trial)
        return trial

    opt.observe = checked_observe
    DRIVES[drive](opt)
    assert len(opt.history) == TRIALS
