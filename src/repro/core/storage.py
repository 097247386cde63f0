"""Cross-session artifacts: prior banks and workload descriptors on disk.

Session state (trials) is journaled through a
:class:`~repro.core.journal.TrialStore` (:mod:`repro.core.stores`), usually
via :class:`~repro.core.manager.SessionManager`.

What stays is persistence for artifacts that outlive a session:
:func:`save_prior_bank`/:func:`load_prior_bank` (trial records go through
the canonical codec, writes are atomic) and the workload codecs they use.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any

from ..exceptions import ReproError
from ..space import ConfigurationSpace
from ..workloads import Workload
from .codec import decode_trial, encode_trial, json_safe
from .stores.json_journal import _atomic_write

__all__ = [
    "workload_to_dict",
    "workload_from_dict",
    "save_prior_bank",
    "load_prior_bank",
]

_FORMAT_VERSION = 1


# -- workloads ---------------------------------------------------------------


def workload_to_dict(workload: Workload) -> dict[str, Any]:
    out = dataclasses.asdict(workload)
    out["tags"] = list(out["tags"])
    return out


def workload_from_dict(data: dict[str, Any]) -> Workload:
    try:
        data = dict(data)
        data["tags"] = tuple(data.get("tags", ()))
        return Workload(**data)
    except TypeError as err:
        raise ReproError(f"malformed workload record: {err}") from err


# -- prior banks ------------------------------------------------------------------


def save_prior_bank(bank, path: str | Path) -> int:
    """Persist a :class:`~repro.optimizers.transfer.PriorBank` to one JSON file."""
    runs = [
        {
            "workload": workload_to_dict(run.workload),
            "context": dict(run.context),
            "trials": [encode_trial(t) for t in run.trials],
        }
        for run in bank.runs
    ]
    payload = {"version": _FORMAT_VERSION, "runs": runs}
    _atomic_write(Path(path), json.dumps(json_safe(payload), indent=2))
    return len(runs)


def load_prior_bank(path: str | Path, space: ConfigurationSpace):
    """Load a prior bank; trial configs are re-validated against ``space``."""
    from ..optimizers.transfer import PriorBank, PriorRun

    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise ReproError(f"cannot read prior bank {path}: {err}") from err
    if payload.get("version") != _FORMAT_VERSION:
        raise ReproError(f"unsupported prior-bank version: {payload.get('version')!r}")
    bank = PriorBank()
    for record in payload.get("runs", []):
        bank.add(
            PriorRun(
                workload=workload_from_dict(record["workload"]),
                trials=[decode_trial(t, space) for t in record.get("trials", [])],
                context=dict(record.get("context", {})),
            )
        )
    return bank
