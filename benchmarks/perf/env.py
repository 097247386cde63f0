"""Process environment for a benchmark run: BLAS pins, RSS, warnings, versions.

Importing this module must stay cheap and must not import numpy: the BLAS
thread pins only take effect when they are in the environment *before*
numpy loads its BLAS.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path
from typing import Any

BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Repository root (``benchmarks/perf/env.py`` → two levels up).
ROOT = Path(__file__).resolve().parents[2]
#: Scratch space for stores, traces and server reports; ignored by git.
OUT_DIR = Path(__file__).resolve().parent / "out"


def pin_blas() -> dict[str, Any]:
    """Pin every BLAS/OpenMP pool to one thread, here and in child processes.

    Returns what was pinned and whether the pin can still take effect
    (it cannot once numpy is imported — e.g. under pytest).
    """
    effective = "numpy" not in sys.modules
    for name in BLAS_PINS:
        os.environ[name] = "1"
    return {**{name: "1" for name in BLAS_PINS}, "pinned_before_numpy": effective}


def child_env() -> dict[str, str]:
    """Environment for the server / set-up probe children: this process's
    (already pinned) environment plus ``src`` on the path."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` (peak resident set) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` so each of several runs reports its own peak."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
    except OSError:
        pass  # best effort: the first run of a process is exact either way


class WarningCounter:
    """Count every Python warning raised in this process, by category.

    Nothing is filtered: the ``always`` action defeats the once-per-location
    registry so a warning raised on every fit shows up as its true count.
    """

    def __init__(self) -> None:
        self.by_category: Counter[str] = Counter()
        self.by_site: Counter[str] = Counter()
        self._catch = warnings.catch_warnings()

    def _record(self, message, category, filename, lineno, file=None, line=None) -> None:
        self.by_category[category.__name__] += 1
        self.by_site[f"{category.__name__}: {message} ({Path(filename).name}:{lineno})"] += 1

    def __enter__(self) -> "WarningCounter":
        self._catch.__enter__()
        warnings.simplefilter("always")
        warnings.showwarning = self._record
        return self

    def __exit__(self, *exc: Any) -> None:
        self._catch.__exit__(*exc)

    @property
    def total(self) -> int:
        return sum(self.by_category.values())

    def to_dict(self) -> dict[str, Any]:
        return {
            "total": self.total,
            "by_category": dict(self.by_category),
            "by_site": dict(self.by_site.most_common(8)),
        }


def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment_block(blas: dict[str, Any]) -> dict[str, Any]:
    """What a reader needs to judge whether two result files are comparable."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "blas_threads": blas,
        "git_sha": _git_sha(),
    }
