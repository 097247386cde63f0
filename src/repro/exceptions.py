"""Exception hierarchy for the autotuning library.

Every error raised by this package derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SpaceError(ReproError):
    """Invalid configuration-space definition or use."""


class DuplicateParameterError(SpaceError):
    """A parameter with the same name was added twice."""


class UnknownParameterError(SpaceError, KeyError):
    """A referenced parameter does not exist in the space."""


class InvalidValueError(SpaceError, ValueError):
    """A value is outside a parameter's domain."""


class ConstraintViolationError(SpaceError):
    """A configuration violates a hard constraint."""


class SamplingError(SpaceError):
    """Rejection sampling could not find a feasible configuration."""


class OptimizerError(ReproError):
    """An optimizer was driven incorrectly or failed internally."""


class NotFittedError(OptimizerError):
    """A model was queried before it was fit to any data."""


class ExhaustedError(OptimizerError):
    """An exhaustive optimizer (e.g. grid search) has no suggestions left."""


class SystemCrashError(ReproError):
    """A simulated system crashed under the applied configuration.

    Mirrors a DBMS failing to start (e.g. buffer pool larger than RAM).
    Tuning harnesses catch this and record a failed trial.
    """


class TrialAbortedError(ReproError):
    """A trial was aborted early (early-abort policy or guardrail)."""
