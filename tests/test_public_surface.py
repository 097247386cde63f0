"""The lazily resolved package surfaces are the ones the eager imports gave.

``repro``, ``repro.optimizers``, ``repro.online`` and ``repro.workload_id``
resolve their exports on first use (``repro._lazy``); nothing a caller could
write against the eager packages may notice. The last test is the surface
audit's ratchet: an export nobody names needs its reason written down here.
"""

from __future__ import annotations

import pickle
import re

import pytest

import repro
import repro.online
import repro.optimizers
import repro.workload_id
from .test_import_budget import ROOT, fresh

REPRO = [
    "BayesianOptimizer", "BooleanParameter", "CMAESOptimizer", "Callback",
    "CategoricalParameter", "Configuration", "ConfigurationSpace", "ConstraintViolationError",
    "ConvergenceTracker", "EvaluationResult", "ExhaustedError", "FloatParameter", "GridSearchOptimizer",
    "History", "IntegerParameter", "InvalidValueError",
    "MultiArmedBanditOptimizer", "NotFittedError", "Objective", "Optimizer", "OptimizerError",
    "ParEGOOptimizer", "ParticleSwarmOptimizer", "ProcessExecutor", "RandomSearchOptimizer", "ReproError",
    "RetryPolicy", "SMACOptimizer", "SamplingError", "SerialExecutor", "SessionTrace",
    "SimulatedAnnealingOptimizer", "SpaceError", "SystemCrashError", "TelemetryCallback",
    "ThreadedExecutor", "Trial", "TrialAbortedError", "TrialExecution", "TrialExecutor", "TrialStatus",
    "TuningResult", "TuningSession", "__version__", "coerce_evaluation",
]
OPTIMIZERS = [
    "AcquisitionFunction", "BanditArmStats", "BayesianOptimizer", "BestConfigOptimizer", "CMAESOptimizer",
    "ConstantKernel", "ConstrainedBayesianOptimizer", "CostAwareEI", "DBMS_VM_SCALING", "EnsembleOptimizer",
    "ExpectedImprovement", "FidelityLevel", "GaussianProcessRegressor", "GridSearchOptimizer",
    "HalvingRecord", "HyperbandResult", "Kernel", "LinearScalarizationOptimizer", "LowerConfidenceBound",
    "Matern", "ModelBasedOptimizer", "MultiArmedBanditOptimizer", "MultiFidelityBO", "MultiOutputGP",
    "MultiTaskOptimizer", "ParEGOOptimizer", "ParallelResult", "ParallelRunner", "ParticleSwarmOptimizer",
    "PriorBank", "PriorRun", "ProbabilityOfImprovement", "Product", "ProjectedOptimizer", "RBF",
    "RandomForestRegressor", "RandomSearchOptimizer", "RegressionTree", "SMACOptimizer",
    "SimulatedAnnealingOptimizer", "StructuredBayesianOptimizer", "Sum", "SurrogateStats",
    "ThompsonSampling", "WhiteKernel", "default_kernel", "dominates", "hyperband",
    "hypervolume_2d", "pareto_front", "pareto_front_mask", "scale_config_for_vm",
    "space_with_priors", "successive_halving", "warm_start_from_history",
]
ONLINE = [
    "ActorCriticTuner", "ContextualBOTuner", "GeneticAlgorithmOptimizer", "GeneticOnlineTuner",
    "GreedyOnlineTuner", "Guardrail", "GuardrailVerdict", "HybridBanditTuner", "OnlinePolicy",
    "OnlinePolicyOptimizer", "OnlineResult", "OnlineStepRecord", "OnlineTuningAgent", "OptimizerPolicy",
    "ProactiveForecastTuner", "QLearningTuner", "SafeBayesianOptimizer", "StaticConfigPolicy",
]
WORKLOAD_ID = [
    "PCAEmbedding", "PageHinkleyDetector", "QueryRecord", "RandomProjectionEmbedding", "SeasonalForecaster",
    "WindowShiftDetector", "WorkloadEmbedder", "blend_mixture", "clustering_accuracy", "kmeans",
    "knn_indices", "mixture_weights", "query_log_features", "silhouette_score", "synthesize_benchmark",
    "synthetic_query_log", "telemetry_features",
]
PACKAGES = [(repro, REPRO), (repro.optimizers, OPTIMIZERS), (repro.online, ONLINE), (repro.workload_id, WORKLOAD_ID)]


@pytest.mark.parametrize("package, names", PACKAGES, ids=[p.__name__ for p, _ in PACKAGES])
def test_surface_is_the_eager_one(package, names):
    assert sorted(package.__all__) == names
    assert set(names) <= set(dir(package))
    for name in names:
        assert getattr(package, name) is not None
    # hasattr, pickle and doctest probe dunder names: a miss is a plain AttributeError.
    with pytest.raises(AttributeError, match=f"module '{package.__name__}' has no attribute 'NoSuchThing'"):
        package.NoSuchThing
    assert not hasattr(package, "__wrapped__")


def test_lazy_classes_are_the_submodule_objects():
    from repro.optimizers.bo import BayesianOptimizer

    assert repro.BayesianOptimizer is repro.optimizers.BayesianOptimizer is BayesianOptimizer
    assert pickle.loads(pickle.dumps(repro.BayesianOptimizer)) is BayesianOptimizer
    assert vars(repro.optimizers)["BayesianOptimizer"] is BayesianOptimizer  # cached: resolved once


@pytest.mark.parametrize("package, names", PACKAGES[1:], ids=[p.__name__ for p, _ in PACKAGES[1:]])
def test_star_import_binds_every_name(package, names):
    code = f"from {package.__name__} import *\nimport json\nprint(json.dumps(sorted(set(globals()) & set({names!r}))))"
    assert fresh(code) == names


def test_export_named_like_its_submodule_is_the_export():
    """``hyperband`` is a function in ``optimizers/hyperband.py``: importing the
    submodule binds the package attribute to the module, and the function must win."""
    code = "from repro.optimizers import HyperbandResult, hyperband\nprint(int(callable(hyperband)))"
    assert fresh(code) == 1


def test_concurrent_first_use_is_safe():
    """Concurrent ``POST /sessions`` reach ``make_optimizer`` on ``to_thread``
    workers, so first touches of one family, and of two that share submodules, race."""
    code = """
import json, sys, threading
from repro.core.manager import make_optimizer
from repro.core.optimizer import Objective
from repro.targets import make_system

sys.setswitchinterval(1e-5)
space = make_system("redis").space
barrier = threading.Barrier(8)
results, errors = [], []

def first_touch(name):
    barrier.wait(timeout=60)
    try:
        results.append(make_optimizer(name, space, Objective("latency"), seed=0))
    except BaseException as err:
        errors.append(repr(err))

threads = [threading.Thread(target=first_touch, args=(("bo", "smac")[i % 2],)) for i in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=120)
print(json.dumps({"errors": errors, "alive": sum(t.is_alive() for t in threads),
                  "types": sorted(type(o).__name__ for o in results),
                  "classes": len({type(o) for o in results})}))
"""
    assert fresh(code) == {
        "errors": [], "alive": 0, "classes": 2,
        "types": ["BayesianOptimizer"] * 4 + ["SMACOptimizer"] * 4,
    }


# Exports that no module, experiment or example names, each with why it stays
# (docs/architecture.md "Surface rule"). An excuse for a name that *is* named fails too.
TECHNIQUE = "inventory technique no experiment constructs yet (ROADMAP item 6's registry)"
RECORD = "record type a reached function returns: callers read it, none names it"
UNREACHED = {
    **dict.fromkeys([
        "ConstrainedBayesianOptimizer", "StructuredBayesianOptimizer", "MultiTaskOptimizer", "MultiOutputGP",
        "EnsembleOptimizer", "hyperband", "GreedyOnlineTuner", "ProactiveForecastTuner", "PageHinkleyDetector",
        "PCAEmbedding", "RandomProjectionEmbedding", "pareto_front", "scale_config_for_vm", "DBMS_VM_SCALING",
    ], TECHNIQUE),
    **dict.fromkeys([
        "BanditArmStats", "GuardrailVerdict", "HyperbandResult", "OnlineResult", "OnlineStepRecord",
        "ParallelResult", "QueryRecord", "TrialExecution",
    ], RECORD),
    "ConvergenceTracker": "stock callback of the inventory's Tuning-core row, like LoggingCallback and StopWhen*",
    "RegressionTree": "reference for `_grow_tree_arrays` parity (tests/test_forest.py)",
    "ProcessExecutor": "documented (README 'Parallel evaluation', docs/architecture.md): CPU-bound evaluators",
    "coerce_evaluation": "documented (docs/architecture.md): the evaluator-contract normaliser `run_evaluation` applies",
    "blend_mixture": "step of `synthesize_benchmark` (E20), named only inside its module",
    "mixture_weights": "step of `synthesize_benchmark` (E20), named only inside its module",
}


def test_every_export_is_reached_or_excused():
    texts = {
        path: path.read_text()
        for top in ("src/repro", "benchmarks", "examples")
        for path in (ROOT / top).rglob("*.py")
        if path.name not in ("__init__.py", "_lazy.py")
    }
    words = {path: set(re.findall(r"\w+", text)) for path, text in texts.items()}
    unreached = set()
    for name in {name for package, _ in PACKAGES for name in package.__all__} - {"__version__"}:
        defines = re.compile(rf"^(?:class|def) {name}\b|^{name}\b *[:=]", re.M)
        if not any(name in found and not (path.is_relative_to(ROOT / "src") and defines.search(texts[path]))
                   for path, found in words.items()):
            unreached.add(name)
    assert unreached - set(UNREACHED) == set(), "exported, named by nothing, and not excused"
    assert set(UNREACHED) - unreached == set(), "excused although something names it"
