"""Static analysis for the autotuner: space lint + codebase invariants.

Two prongs, one finding model (:mod:`repro.staticcheck.findings`):

* :func:`lint_space` (:mod:`~repro.staticcheck.spacelint`) — rule engine
  over :class:`~repro.space.ConfigurationSpace` objects. A wire
  description is built first (:func:`~repro.space.serialize.space_from_dict`
  refuses what a space cannot be), then linted. Wired into
  :meth:`SessionManager.create <repro.core.manager.SessionManager.create>`
  (warn by default, ``strict=True`` rejects), so the service's
  session-create handler lints every space it hosts.
* :func:`lint_paths` / :func:`lint_source`
  (:mod:`~repro.staticcheck.astlint`) — stdlib-``ast`` checkers enforcing
  repro-specific invariants over the source tree.

Both run from the command line as ``repro lint code`` / ``repro lint
space`` (:mod:`repro.cli`), which the blocking CI job calls.

Rule catalog, severities, and suppression syntax: ``docs/static-analysis.md``.
"""

from .._lazy import lazy_exports

# Public name -> defining submodule, imported on first use (see repro._lazy):
# a session create lints its space without loading the source-tree checkers.
_EXPORTS = {
    "AST_RULES": ".astlint",
    "lint_paths": ".astlint",
    "lint_source": ".astlint",
    "Finding": ".findings",
    "LintReport": ".findings",
    "Severity": ".findings",
    "SpaceLintError": ".findings",
    "SPACE_RULES": ".spacelint",
    "lint_space": ".spacelint",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
