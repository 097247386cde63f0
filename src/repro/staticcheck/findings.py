"""The shared finding model of both static-analysis prongs.

A :class:`Finding` is one diagnostic: a stable rule id (``SPxxx`` for
space-lint rules, ``ASTxxx`` for codebase rules), a :class:`Severity`, the
*subject* it is about (a parameter/condition name or a ``file:line``
location), a human message, and a concrete fix hint. Findings aggregate
into a :class:`LintReport` — the one report type of both prongs — that
knows how to render itself for terminals and how to serialise for the
service wire.

Severity semantics, used uniformly by the CLI exit code, the CI job, and
``SessionManager.create(strict=True)``:

* ``ERROR``   — the space/code is broken or will break at runtime
  (unsatisfiable conditions, budget-wasting dead regions, replay-hostile
  RNG use). Strict mode rejects; CI fails.
* ``WARNING`` — legal but hazardous (non-serialisable members that a
  service session will silently lose, redundant constraints).
* ``INFO``    — style/clarity only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from ..exceptions import SpaceError

__all__ = [
    "Severity",
    "Finding",
    "LintReport",
    "SpaceLintError",
]


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 0, "warning": 1, "info": 2}[self.value]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a lint rule."""

    rule: str                      # stable id, e.g. "SP101" / "AST201"
    severity: Severity
    subject: str                   # parameter/condition name or "path:line"
    message: str                   # what is wrong
    hint: str = ""                 # how to fix it
    suppressed: bool = False       # matched but silenced by a noqa/ignore

    def format(self) -> str:
        tail = f"  (fix: {self.hint})" if self.hint else ""
        sup = " [suppressed]" if self.suppressed else ""
        return f"{self.subject}: {self.severity.value.upper()} {self.rule}: {self.message}{tail}{sup}"

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "rule": self.rule,
            "severity": self.severity.value,
            "subject": self.subject,
            "message": self.message,
        }
        if self.hint:
            out["hint"] = self.hint
        if self.suppressed:
            out["suppressed"] = True
        return out


@dataclass
class LintReport:
    """All findings of one lint pass, with severity roll-ups."""

    target: str                    # what was linted (space name, path, ...)
    findings: list[Finding] = field(default_factory=list)

    def add(self, finding: Finding) -> None:
        self.findings.append(finding)

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    def __iter__(self) -> Iterator[Finding]:
        return iter(self.active)

    def __len__(self) -> int:
        return len(self.active)

    @property
    def active(self) -> list[Finding]:
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> list[Finding]:
        return [f for f in self.findings if f.suppressed]

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.active if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.active if f.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True iff nothing blocking: no active ERROR-severity findings."""
        return not self.errors

    @property
    def clean(self) -> bool:
        """True iff there are no active findings of any severity."""
        return not self.active

    def sorted(self) -> list[Finding]:
        return sorted(self.active, key=lambda f: (f.severity.rank, f.rule, f.subject))

    def format(self, show_suppressed: bool = False) -> str:
        lines = [f"lint {self.target}: " + self.summary()]
        for f in self.sorted():
            lines.append("  " + f.format())
        if show_suppressed:
            for f in self.suppressed:
                lines.append("  " + f.format())
        return "\n".join(lines)

    def summary(self) -> str:
        n_err, n_warn = len(self.errors), len(self.warnings)
        n_info = len(self.active) - n_err - n_warn
        parts = [f"{n_err} error(s)", f"{n_warn} warning(s)"]
        if n_info:
            parts.append(f"{n_info} info")
        if self.suppressed:
            parts.append(f"{len(self.suppressed)} suppressed")
        return ", ".join(parts)

    def to_dict(self) -> dict[str, Any]:
        return {
            "target": self.target,
            "ok": self.ok,
            "summary": self.summary(),
            "findings": [f.to_dict() for f in self.sorted()],
            "suppressed": [f.to_dict() for f in self.suppressed],
        }


class SpaceLintError(SpaceError):
    """A strict lint pass rejected a configuration space.

    Carries the offending :class:`LintReport` so callers (the service,
    tests) can surface the individual rule ids; ``str()`` lists them.
    """

    def __init__(self, report: LintReport) -> None:
        self.report = report
        rules = sorted({f.rule for f in report.errors})
        super().__init__(
            f"configuration space {report.target!r} failed strict lint "
            f"({', '.join(rules)}):\n" + "\n".join("  " + f.format() for f in report.errors)
        )
        self.rules = rules
