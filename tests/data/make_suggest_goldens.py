"""Characterisation goldens for the model-based optimizers.

Records, for each of the eight model-based classes at a fixed seed, every
configuration suggested by a scripted campaign (singles, two crashes, one
``suggest(3)`` batch) plus the final ``state_digest_parts()`` and the work
counters of ``surrogate_stats()``, and one JSON-lines journal each for ``bo``
and ``smac`` driven through ``SessionManager``. ``tests/test_model_based.py``
re-runs the same script and demands exact equality, so a refactor of the
suggest loop can neither move a single RNG draw nor make the surrogate do
more work (an extra kernel construction, a lost incremental Cholesky)
unnoticed.

Last re-recorded when ParEGO, linear scalarisation, constrained and
multi-task BO became :class:`~repro.optimizers.BayesianOptimizer` subclasses:
those four entries moved (BO's candidate generator, hyper-fit cadence and
incremental Cholesky, so every NLL and full-factorisation count went down);
the BO, SMAC, multi-fidelity and structured entries and both journals are
byte-identical to the previous recording.

Regenerate (only when a behaviour change is intended and explained)::

    PYTHONPATH=src python tests/data/make_suggest_goldens.py
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from repro.core import Objective, SessionManager, TrialReport
from repro.core.codec import json_safe
from repro.core.stores import JsonJournalStore
from repro.optimizers import (
    BayesianOptimizer,
    ConstrainedBayesianOptimizer,
    FidelityLevel,
    LinearScalarizationOptimizer,
    MultiFidelityBO,
    MultiTaskOptimizer,
    ParEGOOptimizer,
    SMACOptimizer,
    StructuredBayesianOptimizer,
)
from repro.space import (
    BooleanParameter,
    CategoricalParameter,
    ConfigurationSpace,
    EqualsCondition,
    FloatParameter,
    IntegerParameter,
)

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "suggest_goldens.json"
JOURNAL_DIR = HERE / "journals"
JOURNAL_SESSIONS = {"bo": "golden-bo", "smac": "golden-smac"}

SEED = 17
TWO_OBJECTIVES = [Objective("score"), Objective("cost")]
FIDELITIES = [FidelityLevel(1.0, 1.0), FidelityLevel(4.0, 3.0), FidelityLevel(10.0, 8.0)]
#: Scripted campaign: "s" = suggest one and observe it, "f" = suggest one and
#: report a crash, "b" = suggest(3) and observe all three.
SCRIPT = "sssfsbssfss"


def make_space() -> ConfigurationSpace:
    """Small conditional mixed space: float, log-int, categorical, and a
    knob that is only active when its boolean parent is on."""
    space = ConfigurationSpace("golden", seed=3)
    space.add(FloatParameter("x", 0.0, 1.0, default=0.5))
    space.add(IntegerParameter("n", 1, 64, log=True, default=8))
    space.add(CategoricalParameter("mode", ["a", "b", "c"], default="a"))
    space.add(BooleanParameter("jit", default=False))
    space.add(FloatParameter("jit_cost", 0.0, 1.0, default=0.5))
    space.add_condition(EqualsCondition("jit_cost", "jit", True))
    return space


def metrics_of(config) -> dict[str, float]:
    score = (config["x"] - 0.3) ** 2 + 0.01 * config["n"] + (0.4 if config["mode"] == "c" else 0.0)
    if config["jit"]:
        score += 0.5 * (config["jit_cost"] - 0.2) ** 2 - 0.05
    return {
        "score": score,
        "cost": 1.0 - config["x"] + 0.002 * config["n"],
        "overrun": config["x"] - 0.7,  # feasible iff x <= 0.7
    }


def build_optimizers() -> dict[str, object]:
    space = make_space
    small = {"n_init": 3, "n_candidates": 32, "seed": SEED}
    return {
        "BayesianOptimizer": BayesianOptimizer(space(), **small),
        "SMACOptimizer": SMACOptimizer(space(), n_trees=8, interleave=3, **small),
        "ConstrainedBayesianOptimizer": ConstrainedBayesianOptimizer(space(), ["overrun"], **small),
        "ParEGOOptimizer": ParEGOOptimizer(space(), TWO_OBJECTIVES, **small),
        "LinearScalarizationOptimizer": LinearScalarizationOptimizer(space(), TWO_OBJECTIVES, **small),
        "StructuredBayesianOptimizer": StructuredBayesianOptimizer(space(), **small),
        "MultiFidelityBO": MultiFidelityBO(space(), FIDELITIES, full_every=3, **small),
        "MultiTaskOptimizer": MultiTaskOptimizer(space(), TWO_OBJECTIVES, **small),
    }


def run_script(opt) -> dict[str, object]:
    """Drive ``opt`` through :data:`SCRIPT`; return suggestions, digest and work counters."""
    wanted = {obj.name for obj in opt.objectives} | set(getattr(opt, "constraint_metrics", ()))
    suggested: list[dict] = []

    def observe(config, number) -> None:
        metrics = {k: v for k, v in metrics_of(config).items() if k in wanted}
        fidelity = opt.suggested_fidelity(number)
        if fidelity is None:
            opt.observe(config, metrics, suggestion=number)
        else:
            level = next(f for f in FIDELITIES if f.value == fidelity)
            opt.observe(config, metrics, cost=level.cost, fidelity=fidelity, suggestion=number)

    for step in SCRIPT:
        configs = opt.suggest(3 if step == "b" else 1)
        suggested.extend(json_safe(c.as_dict()) for c in configs)
        for number, config in enumerate(configs, opt.n_suggested - len(configs)):
            if step == "f":
                opt.observe_failure(config, suggestion=number)
            else:
                observe(config, number)
    return {
        "suggestions": suggested,
        "digest": opt.state_digest_parts(),
        "digest_state": json_safe(opt._digest_state()),  # raw, so a diff is readable
        # Counts are exact for a seed on any machine; the ``*_ms`` timings are not.
        "counters": {k: v for k, v in opt.surrogate_stats().items() if not k.endswith("_ms")},
    }


def record_goldens() -> dict[str, object]:
    return {name: run_script(opt) for name, opt in build_optimizers().items()}


def record_journal(name: str, root: Path) -> None:
    """One 32-trial session: a batch ask(count=3), singles, three crashes."""
    options = {"n_init": 4, "n_candidates": 24}
    if name == "smac":
        options["n_trees"] = 8
    manager = SessionManager(JsonJournalStore(root, fsync=False))
    session = manager.create(
        make_space(),
        optimizer=name,
        seed=SEED,
        max_trials=40,
        optimizer_options=options,
        session_id=JOURNAL_SESSIONS[name],
    )

    def tell(sugg, crashed: bool = False) -> None:
        if crashed:
            session.tell(TrialReport(config=sugg.config, status="failed", ask_id=sugg.ask_id))
        else:
            metrics = {"score": metrics_of(sugg.config)["score"]}
            session.tell(TrialReport(config=sugg.config, metrics=metrics, ask_id=sugg.ask_id))

    for i in range(6):
        tell(*session.ask(), crashed=i == 2)
    batch = session.ask(count=3)  # told out of order, one of them crashed
    tell(batch[1])
    tell(batch[0], crashed=True)
    tell(batch[2])
    for i in range(23):
        tell(*session.ask(), crashed=i == 11)
    manager.close()


def main() -> None:
    GOLDEN_PATH.write_text(json.dumps(record_goldens(), indent=1, sort_keys=True) + "\n")
    if JOURNAL_DIR.exists():
        shutil.rmtree(JOURNAL_DIR)
    for name in JOURNAL_SESSIONS:
        record_journal(name, JOURNAL_DIR)
    print(f"wrote {GOLDEN_PATH} and {sorted(p.name for p in JOURNAL_DIR.iterdir())}")


if __name__ == "__main__":
    main()
