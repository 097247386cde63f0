"""Tuning core: ask/tell protocol, trials, sessions, durable stores."""

from .callbacks import Callback, ConvergenceTracker, LoggingCallback, StopWhenConverged, StopWhenReached
from .codec import (
    SuggestRequest,
    Suggestion,
    TrialReport,
    decode_trial,
    encode_trial,
)
from .evaluation import EvaluationResult, coerce_evaluation, run_evaluation
from .journal import AppendResult, SessionMeta, StorageError, TrialStore, new_session_id
from .manager import SessionManager, make_optimizer, optimizer_names
from .optimizer import History, Objective, Optimizer, Trial, TrialStatus, rng_digest
from .replay import ReplayDivergence, ReplayReport, replay_session
from .result import TuningResult
from .stores import JsonJournalStore, MemoryTrialStore, SqliteTrialStore, open_store
from .session import Evaluator, TuningSession

__all__ = [
    "SuggestRequest",
    "Suggestion",
    "TrialReport",
    "decode_trial",
    "encode_trial",
    "AppendResult",
    "SessionMeta",
    "StorageError",
    "TrialStore",
    "new_session_id",
    "SessionManager",
    "make_optimizer",
    "optimizer_names",
    "JsonJournalStore",
    "MemoryTrialStore",
    "SqliteTrialStore",
    "open_store",
    "Callback",
    "ConvergenceTracker",
    "LoggingCallback",
    "StopWhenConverged",
    "StopWhenReached",
    "EvaluationResult",
    "coerce_evaluation",
    "run_evaluation",
    "History",
    "Objective",
    "Optimizer",
    "Trial",
    "TrialStatus",
    "rng_digest",
    "ReplayDivergence",
    "ReplayReport",
    "replay_session",
    "TuningResult",
    "Evaluator",
    "TuningSession",
]
