"""Tuning core: ask/tell protocol, trials, sessions, durable stores."""

from .._lazy import lazy_exports

# Public name -> defining submodule, imported on first use (see repro._lazy).
_EXPORTS = {
    "Callback": ".callbacks",
    "ConvergenceTracker": ".callbacks",
    "LoggingCallback": ".callbacks",
    "StopWhenConverged": ".callbacks",
    "StopWhenReached": ".callbacks",
    "SuggestRequest": ".codec",
    "Suggestion": ".codec",
    "TrialReport": ".codec",
    "decode_trial": ".codec",
    "encode_trial": ".codec",
    "EvaluationResult": ".evaluation",
    "coerce_evaluation": ".evaluation",
    "run_evaluation": ".evaluation",
    "AppendResult": ".journal",
    "SessionMeta": ".journal",
    "StorageError": ".journal",
    "TrialStore": ".journal",
    "new_session_id": ".journal",
    "SessionManager": ".manager",
    "make_optimizer": ".manager",
    "optimizer_names": ".manager",
    "History": ".optimizer",
    "Objective": ".optimizer",
    "Optimizer": ".optimizer",
    "Trial": ".optimizer",
    "TrialStatus": ".optimizer",
    "rng_digest": ".optimizer",
    "ReplayDivergence": ".replay",
    "ReplayReport": ".replay",
    "replay_session": ".replay",
    "TuningResult": ".result",
    "Evaluator": ".evaluation",
    "TuningSession": ".session",
    "JsonJournalStore": ".stores",
    "MemoryTrialStore": ".stores",
    "SqliteTrialStore": ".stores",
    "open_store": ".stores",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
