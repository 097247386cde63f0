"""repro — an autotuning-systems library.

A full reproduction of the SIGMOD 2025 tutorial *"Autotuning Systems:
Techniques, Challenges, and Opportunities"* (Kroth, Matusevych, Zhu):
offline tuning (classic search, GP/RF Bayesian optimization, evolutionary
methods, multi-objective/-fidelity/-task machinery), online tuning (RL,
genetic, hybrid bandits, safety), the systems substrate it all runs on
(simulated DBMS/Redis/Spark in a noisy cloud), and workload identification
(embeddings, shift detection, benchmark synthesis).
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

# Public name -> the package exporting it, imported on first use: ``import
# repro`` loads no numpy, and a name loads only its own submodule.
_EXPORTS = {
    **dict.fromkeys(
        (
            "Callback", "ConvergenceTracker", "EvaluationResult", "History", "Objective", "Optimizer",
            "Trial", "TrialStatus", "TuningResult", "TuningSession", "coerce_evaluation",
        ),
        ".core",
    ),
    **dict.fromkeys(
        (
            "ProcessExecutor", "RetryPolicy", "SerialExecutor", "ThreadedExecutor", "TrialExecution",
            "TrialExecutor",
        ),
        ".execution",
    ),
    **dict.fromkeys(("SessionTrace", "TelemetryCallback"), ".telemetry"),
    **dict.fromkeys(
        (
            "ConstraintViolationError", "ExhaustedError", "InvalidValueError", "NotFittedError",
            "OptimizerError", "ReproError", "SamplingError", "SpaceError", "SystemCrashError",
            "TrialAbortedError",
        ),
        ".exceptions",
    ),
    **dict.fromkeys(
        (
            "BooleanParameter", "CategoricalParameter", "Configuration", "ConfigurationSpace",
            "FloatParameter", "IntegerParameter",
        ),
        ".space",
    ),
    **dict.fromkeys(
        (
            "BayesianOptimizer", "CMAESOptimizer", "GridSearchOptimizer", "MultiArmedBanditOptimizer",
            "ParEGOOptimizer", "ParticleSwarmOptimizer", "RandomSearchOptimizer",
            "SimulatedAnnealingOptimizer", "SMACOptimizer",
        ),
        ".optimizers",
    ),
}

__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
