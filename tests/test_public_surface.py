"""The lazily resolved package surfaces are the ones the eager imports gave.

Every package under ``repro`` resolves its exports on first use
(``repro._lazy``); nothing a caller could write against the eager packages
may notice. The export census is the surface audit's ratchet over
``repro``, ``repro.optimizers``, ``repro.online`` and ``repro.workload_id``:
an export nobody names needs its reason written down here.
"""

from __future__ import annotations

import ast
import importlib
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
    "HyperbandOptimizer", "Kernel", "LinearScalarizationOptimizer", "LowerConfidenceBound",
    "Matern", "ModelBasedOptimizer", "MultiArmedBanditOptimizer", "MultiFidelityBO",
    "MultiTaskOptimizer", "ParEGOOptimizer", "ParticleSwarmOptimizer",
    "PriorBank", "PriorRun", "ProbabilityOfImprovement", "Product", "ProjectedOptimizer", "RBF",
    "RandomForestRegressor", "RandomSearchOptimizer", "RegressionTree", "SMACOptimizer",
    "SimulatedAnnealingOptimizer", "StructuredBayesianOptimizer", "Sum", "SurrogateStats",
    "ThompsonSampling", "WhiteKernel", "default_kernel", "dominates",
    "hypervolume_2d", "pareto_front", "pareto_front_mask", "scale_config_for_vm",
    "space_with_priors", "warm_start_from_history",
]
ONLINE = [
    "ActorCriticTuner", "ContextualBayesianOptimizer", "GeneticAlgorithmOptimizer", "GreedyOnlineTuner", "Guardrail",
    "GuardrailVerdict", "HybridBanditTuner", "OnlinePolicy", "OnlineResult", "OnlineStepRecord", "OnlineTuningAgent",
    "ProactiveForecastTuner", "QLearningTuner", "REWARD", "SafeBayesianOptimizer", "StaticConfigPolicy",
]
WORKLOAD_ID = [
    "PCAEmbedding", "PageHinkleyDetector", "QueryRecord", "RandomProjectionEmbedding", "SeasonalForecaster",
    "WindowShiftDetector", "WorkloadEmbedder", "blend_mixture", "clustering_accuracy", "kmeans",
    "knn_indices", "mixture_weights", "query_log_features", "silhouette_score", "synthesize_benchmark",
    "synthetic_query_log", "telemetry_features",
]
PACKAGES = [(repro, REPRO), (repro.optimizers, OPTIMIZERS), (repro.online, ONLINE), (repro.workload_id, WORKLOAD_ID)]
# The other thirteen packages, each pinned to the ``__all__`` its eager ``__init__``
# had. The export census below keeps the four packages above.
TABLES = {
    "repro.analysis": [
        "ComparisonResult", "KnobRanking", "LassoImportance", "compare_optimizers", "format_table", "format_value",
        "lasso_coordinate_descent", "permutation_importance", "print_table",
    ],
    "repro.benchmarking": [
        "BenchmarkRunner", "DuetBenchmarkRunner", "DuetOutcome", "EarlyAbortPolicy", "Measurement",
        "TunaObservation", "TunaRunner", "aggregate_measurements",
    ],
    "repro.chaos": [
        "ClientFaultTransport", "FaultDecision", "FaultEvent", "FaultInjector", "FaultPlan", "FaultRule",
        "FaultyStore", "KINDS", "ServerFaultHook", "chaotic_evaluator",
    ],
    "repro.core": [
        "AppendResult", "Callback", "ConvergenceTracker", "EvaluationResult", "Evaluator", "History",
        "JsonJournalStore", "LoggingCallback", "MemoryTrialStore", "Objective", "Optimizer", "ReplayDivergence",
        "ReplayReport", "SessionManager", "SessionMeta", "SqliteTrialStore", "StopWhenConverged", "StopWhenReached",
        "StorageError", "SuggestRequest", "Suggestion", "Trial", "TrialReport", "TrialStatus", "TrialStore",
        "TuningResult", "TuningSession", "coerce_evaluation", "decode_trial", "encode_trial", "make_optimizer",
        "new_session_id", "open_store", "optimizer_names", "replay_session", "rng_digest", "run_evaluation",
    ],
    "repro.core.stores": ["JsonJournalStore", "MemoryTrialStore", "SqliteTrialStore", "open_store"],
    "repro.execution": [
        "ProcessExecutor", "RetryPolicy", "SerialExecutor", "SimulatedClockExecutor", "ThreadedExecutor",
        "TrialExecution", "TrialExecutor", "execute_trial",
    ],
    "repro.knowledge": ["DBMS_MANUAL", "DiscoveredKnob", "ManualEntry", "ManualKnowledgeExtractor"],
    "repro.service": ["ServiceClient", "ServiceHandlers", "TuningServer", "WireError", "serve"],
    "repro.space": [
        "BetaPrior", "BooleanParameter", "CallableCondition", "CallableConstraint", "CategoricalParameter",
        "Condition", "Configuration", "ConfigurationSpace", "Constraint", "EqualsCondition", "FloatParameter",
        "GreaterThanCondition", "HistogramPrior", "InCondition", "IntegerParameter", "LessThanCondition",
        "LinearConstraint", "NormalPrior", "Parameter", "Prior", "RatioConstraint", "UniformPrior",
    ],
    "repro.staticcheck": [
        "AST_RULES", "Finding", "LintReport", "SPACE_RULES", "Severity", "SpaceLintError", "lint_paths",
        "lint_source", "lint_space",
    ],
    "repro.sysim": [
        "CloudEnvironment", "FLUSH_METHODS", "KnobLevel", "Machine", "NginxServer", "PerfProfile", "QUIET_CLOUD",
        "RedisServer", "SimulatedDBMS", "SimulatedSystem", "SparkCluster", "TELEMETRY_CHANNELS", "TelemetryTrace",
        "VMSize", "VM_SIZES", "generate_telemetry", "redis_benchmark_workload", "web_workload",
    ],
    "repro.telemetry": [
        "DEFAULT_LATENCY_BUCKETS", "EVENT_KINDS", "Histogram", "MetricsRegistry", "OpSpan",
        "SPAN_NAMES", "SessionTrace", "TelemetryCallback", "TraceContext", "TrialRef", "active_trace", "bind_trace",
        "chrome_trace", "current_op", "current_trace_id", "emit_event", "export_chrome_trace", "format_traceparent",
        "parse_traceparent", "span", "trial_scope",
    ],
    "repro.workloads": [
        "DiurnalTrace", "DriftingTrace", "MB_PER_WAREHOUSE", "PhasedTrace", "TPCC_TX_MIX", "TPCH_QUERIES",
        "TpchQuery", "Workload", "WorkloadTrace", "YCSB_MIXES", "tpcc", "tpch", "tpch_query_mix", "ycsb",
    ],
}
SURFACES = {**{package.__name__: names for package, names in PACKAGES}, **TABLES}


@pytest.mark.parametrize("name", SURFACES)
def test_surface_is_the_eager_one(name):
    package, names = importlib.import_module(name), SURFACES[name]
    assert sorted(package.__all__) == names
    assert set(names) <= set(dir(package))
    for export in names:
        assert getattr(package, export) is not None
    cls = next(value for value in (getattr(package, export) for export in names) if isinstance(value, type))
    assert pickle.loads(pickle.dumps(cls)) is cls
    # hasattr, pickle and doctest probe dunder names: a miss is a plain AttributeError.
    with pytest.raises(AttributeError, match=f"module '{name}' has no attribute 'NoSuchThing'"):
        package.NoSuchThing
    assert not hasattr(package, "__wrapped__")


def test_lazy_classes_are_the_submodule_objects():
    from repro.optimizers.bo import BayesianOptimizer

    assert repro.BayesianOptimizer is repro.optimizers.BayesianOptimizer is BayesianOptimizer
    assert pickle.loads(pickle.dumps(repro.BayesianOptimizer)) is BayesianOptimizer
    assert vars(repro.optimizers)["BayesianOptimizer"] is BayesianOptimizer  # cached: resolved once


@pytest.mark.parametrize("name", [name for name in SURFACES if name != "repro"])
def test_star_import_binds_every_name(name):
    names = SURFACES[name]
    code = f"from {name} import *\nimport json\nprint(json.dumps(sorted(set(globals()) & set({names!r}))))"
    assert fresh(code) == names


def test_export_named_like_its_submodule_is_the_export():
    """``tpcc``, ``tpch`` and ``ycsb`` are functions in ``workloads/`` modules of
    the same names: importing the submodule binds the package attribute to
    the module, and the function must win."""
    code = (
        "import repro.workloads\n"
        "from repro.workloads import TPCC_TX_MIX, TPCH_QUERIES, YCSB_MIXES\n"
        "w = repro.workloads\n"
        "print(sum(map(callable, (w.tpcc, w.tpch, w.ycsb))))"
    )
    assert fresh(code) == 3


def test_concurrent_first_use_is_safe():
    """Concurrent ``POST /sessions`` reach ``make_optimizer`` on the service's
    pool workers, so first touches of one family, and of two that share submodules, race."""
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
        "EnsembleOptimizer", "PageHinkleyDetector",
        "PCAEmbedding", "RandomProjectionEmbedding", "pareto_front", "scale_config_for_vm", "DBMS_VM_SCALING",
    ], TECHNIQUE),
    **dict.fromkeys([
        "BanditArmStats", "GuardrailVerdict", "OnlineResult", "OnlineStepRecord",
        "QueryRecord", "TrialExecution",
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


# Defaulted parameters that no call site under src/, benchmarks/ or examples/ passes, each with why it
# stays settable (docs/architecture.md "Surface rule", the options half). A key is a parameter
# (``repro.mod.Owner.param``), everything under an owner (``repro.mod.Owner.``) or a name wherever it
# appears (``*.seed``). An entry that excuses nothing fails too.
WHAT = "what is tuned or what it is called (seed, objective, knob subset, name), not how"
RECORD_FIELD = "field of a record, result or wire type: producers fill it, callers read it"
SEAM = "seam through which a test substitutes a fake (clock, sleep, rng, trace, fault hook, transport)"
SAFETY = "safety threshold or deadline (CircuitBreaker, Guardrail, RetryPolicy, timeouts, RegressionTree parity arms)"
DEPLOYMENT = "deployment setting: address, port, path, backend, capacity and deadlines of server and client"
SCENARIO = "scenario input of a simulated substrate: it describes the world, it does not switch behaviour"
TEST_BUDGET = "test budget: tests pass a small value to reach in seconds a behaviour production also reaches"
SECOND_TIER = "only tests set it and one of them is a test of the knob itself: goes with that test, past this PR's removal budget"
OPTIONS_KEPT = {
    **dict.fromkeys(["*.seed", "*.objectives", "*.objective", "*.name", "*.knobs"], WHAT),
    **dict.fromkeys(["*.rng", "*.clock", "*.sleep", "*.trace", "*.fault_hook", "*.transport_faults",
                     "repro.service.client.ServiceClient.backoff", "repro.service.client.ServiceClient.backoff_seed",
                     "repro.service.client.ServiceClient.breaker",
                     "repro.core.manager.SessionManager.create.callbacks"], SEAM),
    **dict.fromkeys(["repro.sysim.", "repro.workloads.", "repro.online.agent.OnlineTuningAgent.duration_s",
                     "repro.optimizers.transfer.scale_config_for_vm.scaling"], SCENARIO),
    **dict.fromkeys([
        "repro.analysis.convergence.ComparisonResult.", "repro.benchmarking.tuna._LoadModel.", "repro.chaos.plan.FaultRule.",
        "repro.core.codec.SuggestRequest.", "repro.core.codec.TrialReport.", "repro.core.journal.SessionMeta.status",
        "repro.core.replay.ReplayReport.", "repro.optimizers.forest.ForestStats.", "repro.optimizers.forest._Node.",
        "repro.optimizers.gp.SurrogateStats.", "repro.optimizers.transfer.PriorRun.context", "repro.service.handlers._Hosted.lock",
        "repro.service.wire.CreateSessionRequest.", "repro.staticcheck.findings.LintReport.findings",
    ], RECORD_FIELD),
    **dict.fromkeys([
        "repro.online.safety.Guardrail.", "repro.online.safety.SafeBayesianOptimizer.kappa", "repro.resilience.BackoffPolicy.multiplier",
        "repro.resilience.CircuitBreaker.failure_threshold", "repro.resilience.CircuitBreaker.recovery_s",
        "repro.execution.executor.RetryPolicy.retry_on", "repro.execution.executor._PoolExecutor.timeout_s",
        "repro.optimizers.forest.RegressionTree.", "repro.space.space.ConfigurationSpace.grid.max_points",
    ], SAFETY),
    **dict.fromkeys([
        "repro.service.server.TuningServer.max_in_flight", "repro.service.server.TuningServer.queue_depth",
        "repro.service.server.TuningServer.request_timeout_s", "repro.service.server.TuningServer.retry_after_s",
        "repro.service.server.TuningServer.stop.", "repro.service.client.ServiceClient.timeout_s",
        "repro.service.client.ServiceClient.tell_reliably.retries", "repro.staticcheck.astlint.lint_paths.root",
    ], DEPLOYMENT),
    **dict.fromkeys([
        "repro.core.callbacks.StopWhenConverged.", "repro.online.actor_critic.ActorCriticTuner.sigma",
        "repro.online.actor_critic.ActorCriticTuner.sigma_decay", "repro.online.actor_critic.ActorCriticTuner.sigma_min",
        "repro.online.genetic.GeneticAlgorithmOptimizer.elite_fraction",
        "repro.online.greedy.GreedyOnlineTuner.patience", "repro.online.greedy.GreedyOnlineTuner.step",
        "repro.online.proactive.ProactiveForecastTuner.explore_prob", "repro.online.proactive.ProactiveForecastTuner.n_bands",
        "repro.online.qlearning.QLearningTuner.epsilon", "repro.online.qlearning.QLearningTuner.epsilon_decay",
        "repro.online.qlearning.QLearningTuner.step", "repro.optimizers.annealing.SimulatedAnnealingOptimizer.cooling",
        "repro.optimizers.annealing.SimulatedAnnealingOptimizer.initial_temperature",
        "repro.optimizers.bandits.MultiArmedBanditOptimizer.arms", "repro.optimizers.bestconfig.BestConfigOptimizer.round_size",
        "repro.optimizers.gp.GaussianProcessRegressor.jitter", "repro.optimizers.smac.SMACOptimizer.interleave",
        "repro.optimizers.transfer.warm_start_from_history.top_fraction", "repro.space.adapters.LlamaTuneAdapter.special_values",
        "repro.space.priors.HistogramPrior.from_samples.n_bins",
        "repro.workload_id.embedding.RandomProjectionEmbedding.n_components", "repro.workload_id.features.synthetic_query_log.n_queries",
        "repro.workload_id.shift_detection.PageHinkleyDetector.",
    ], TEST_BUDGET),
    **dict.fromkeys([
        "repro.benchmarking.runner.BenchmarkRunner.runtime_metric", "repro.benchmarking.measurement.aggregate_measurements.how",
        "repro.core.callbacks.LoggingCallback.every", "repro.knowledge.discovery.ManualKnowledgeExtractor.prior_std",
        "repro.optimizers.acquisition.CostAwareEI.",
        "repro.space.adapters.SpecialValuesAdapter.bias", "repro.workload_id.embedding.WorkloadEmbedder.use_query_log",
        "repro.workload_id.embedding.WorkloadEmbedder.use_telemetry",
    ], SECOND_TIER),
}


def _excuse(key: str) -> str | None:
    """The OPTIONS_KEPT entry that names ``key``: itself, an owner prefix, or its bare name."""
    owners = (key[:i + 1] for i, ch in enumerate(key) if ch == ".")
    return next((k for k in (key, "*." + key.rsplit(".", 1)[1], *owners) if k in OPTIONS_KEPT), None)


def test_every_option_is_set_or_excused():
    from .census.options import census

    unset = {key for key, (_, verdict, _) in census().items()
             if verdict != "live" and not key.rsplit(".", 1)[1].startswith("_")}  # `_name=name` binds a loop variable
    used = {key: _excuse(key) for key in unset}
    assert sorted(k for k, excuse in used.items() if excuse is None) == [], "defaulted, passed by no caller, and not excused"
    assert sorted(set(OPTIONS_KEPT) - set(used.values())) == [], "excused although a caller passes it (or it is gone)"


def test_service_doc_lists_the_options_each_optimizer_accepts():
    import inspect

    from repro.core.manager import _REGISTRY

    rows = re.findall(r"^\| (`[a-z`, ]+`) \| (.*) \|$", (ROOT / "docs" / "service.md").read_text(), re.M)
    documented = {name: set(re.findall(r"`(\w+)` \(", keys)) for names, keys in rows[1:] for name in re.findall(r"`(\w+)`", names)}
    accepted = {
        name: set(inspect.signature(getattr(repro.optimizers, cls).__init__).parameters) - {"self", "space", "objectives", "seed", "acquisition"}
        for name, cls in _REGISTRY.items()
    }
    assert documented == accepted


def test_every_registered_telemetry_name_is_opened_or_emitted():
    """The converse of AST401: a span name is opened with ``span(...)`` and an
    event kind emitted with ``emit_event(...)`` somewhere in the package (the
    trial span by ``SessionTrace.record_trial``, through ``TRIAL_SPAN``), so
    the registry names no series that never appears in a trace."""
    from repro.telemetry.naming import EVENT_KINDS, SPAN_NAMES, TRIAL_SPAN

    used: dict[str, set[str]] = {"span": set(), "emit_event": set()}
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and node.id == "TRIAL_SPAN" and path.name != "naming.py":
                used["span"].add(TRIAL_SPAN)
            if isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
                func = node.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if called in used:
                    used[called].add(node.args[0].value)
    assert sorted(SPAN_NAMES - used["span"]) == []
    assert sorted(EVENT_KINDS - used["emit_event"]) == []


def test_static_analysis_doc_catalogs_exactly_the_rules():
    from repro.staticcheck import AST_RULES, SPACE_RULES

    rows = re.findall(r"^\| ((?:SP|AST)\d+) \| (\w+) \|", (ROOT / "docs" / "static-analysis.md").read_text(), re.M)
    catalog = {rule: severity.name for rule, (severity, _) in {**SPACE_RULES, **AST_RULES}.items()}
    assert len(rows) == len(dict(rows)), "a rule is documented twice"
    assert dict(rows) == catalog
