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
from .core import (
    Callback,
    ConvergenceTracker,
    EvaluationResult,
    History,
    Objective,
    Optimizer,
    Trial,
    TrialStatus,
    TuningResult,
    TuningSession,
    coerce_evaluation,
)
from .execution import (
    ProcessExecutor,
    RetryPolicy,
    SerialExecutor,
    ThreadedExecutor,
    TrialExecution,
    TrialExecutor,
)
from .telemetry import SessionTrace, TelemetryCallback
from .exceptions import (
    ConstraintViolationError,
    ExhaustedError,
    InvalidValueError,
    NotFittedError,
    OptimizerError,
    ReproError,
    SamplingError,
    SpaceError,
    SystemCrashError,
    TrialAbortedError,
)
from .space import (
    BooleanParameter,
    CategoricalParameter,
    Configuration,
    ConfigurationSpace,
    FloatParameter,
    IntegerParameter,
)

__version__ = "1.0.0"

# The optimizer classes resolve through repro.optimizers on first use, so
# ``import repro`` loads no surrogate model.
_OPTIMIZERS = dict.fromkeys(
    (
        "BayesianOptimizer",
        "CMAESOptimizer",
        "GridSearchOptimizer",
        "MultiArmedBanditOptimizer",
        "ParEGOOptimizer",
        "ParticleSwarmOptimizer",
        "RandomSearchOptimizer",
        "SimulatedAnnealingOptimizer",
        "SMACOptimizer",
    ),
    ".optimizers",
)

__all__ = [
    "Callback",
    "ConvergenceTracker",
    "EvaluationResult",
    "coerce_evaluation",
    "ProcessExecutor",
    "RetryPolicy",
    "SerialExecutor",
    "ThreadedExecutor",
    "TrialExecution",
    "TrialExecutor",
    "SessionTrace",
    "TelemetryCallback",
    "History",
    "Objective",
    "Optimizer",
    "Trial",
    "TrialStatus",
    "TuningResult",
    "TuningSession",
    "ConstraintViolationError",
    "ExhaustedError",
    "InvalidValueError",
    "NotFittedError",
    "OptimizerError",
    "ReproError",
    "SamplingError",
    "SpaceError",
    "SystemCrashError",
    "TrialAbortedError",
    "BooleanParameter",
    "CategoricalParameter",
    "Configuration",
    "ConfigurationSpace",
    "FloatParameter",
    "IntegerParameter",
    "__version__",
    *_OPTIMIZERS,
]
__getattr__, __dir__ = lazy_exports(__name__, _OPTIMIZERS)
