"""Prong 2: repro-specific codebase invariant checkers (stdlib ``ast``).

These rules encode invariants the ROADMAP's service and deterministic-
replay work depend on but nothing previously enforced:

* **AST101 — blocking call in async code.** The service is one asyncio
  event loop; a single ``time.sleep``/sync ``open``/``socket`` call inside
  an ``async def`` under ``repro/service/`` stalls every session it hosts.
  Storage-backed :class:`~repro.core.manager.SessionManager` methods count
  as blocking too (they fsync or hit SQLite) unless dispatched through
  ``asyncio.to_thread``/``run_in_executor``.
* **AST105 — hand-rolled retry sleeps in service code.** Every retry/poll
  delay under ``repro/service/`` must come from
  :meth:`repro.resilience.BackoffPolicy.delay` (full jitter, cap,
  ``Retry-After``): an ``asyncio.sleep`` inside a loop whose argument is
  not a ``.delay(...)`` call is a latent retry storm.
* **AST201/AST202/AST203 — RNG hygiene.** Bit-exact replay of a tuning
  campaign requires every random draw to flow from seeded
  ``numpy.random.Generator`` objects. Mutating NumPy's module-global state
  (``np.random.seed`` + legacy draws), stdlib module-global ``random``
  calls, and unseeded ``default_rng()`` fallbacks all break that.
* **AST204 — per-iteration space sampling in optimizer hot paths.** A
  ``space.sample(...)``/``space.neighbor(...)`` call inside a ``for`` body
  or comprehension under ``repro/optimizers/`` pays the whole
  per-configuration Python overhead once per candidate; the batched
  ``sample_many``/``neighbor_many`` equivalents draw every parameter
  column vectorized.
* **AST301 — swallowed exceptions in service, executor, optimizer, online
  and core code.** A bare ``except:`` (or a handler for ``Exception``) that
  neither re-raises nor leaves an event or a metric behind turns
  crash-recovery bugs invisible and programming errors into fallbacks.
* **AST401 — span/event names outside the telemetry registry.** Names are
  a closed vocabulary (:mod:`repro.telemetry.naming`); a typo creates a
  new series instead of extending one.

Suppression: append ``# repro: noqa RULE-ID`` (one or more ids, comma- or
space-separated) to the offending line. Suppressed findings are counted in
the report, so a growing pile of noqa is itself visible.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable, Sequence

from ..telemetry.naming import EVENT_KINDS, SPAN_NAMES
from .findings import Finding, LintReport, Severity

__all__ = ["lint_paths", "lint_source", "AST_RULES"]

AST_RULES: dict[str, tuple[Severity, str]] = {
    "AST101": (Severity.ERROR, "blocking call inside an async function in service code"),
    "AST105": (Severity.WARNING, "hand-rolled retry sleep in service code bypassing BackoffPolicy"),
    "AST201": (Severity.ERROR, "module-global NumPy RNG state mutation or legacy draw"),
    "AST202": (Severity.ERROR, "module-global stdlib random call"),
    "AST203": (Severity.WARNING, "unseeded np.random.default_rng() (non-replayable)"),
    "AST204": (Severity.WARNING, "per-iteration space.sample/neighbor in an optimizer loop"),
    "AST301": (Severity.ERROR, "swallowed broad exception without re-raise or event emission"),
    "AST401": (Severity.ERROR, "span/event name not in the telemetry naming registry"),
}

_NOQA = re.compile(r"#\s*repro:\s*noqa\s+(?P<rules>[A-Z]+\d+(?:[\s,]+[A-Z]+\d+)*)")

#: Dotted call names that block the event loop. Matched against the full
#: attribute chain of the called expression.
_BLOCKING_CALLS = {
    "time.sleep",
    "socket.socket", "socket.create_connection", "socket.getaddrinfo",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
    "os.system", "os.waitpid",
    "sqlite3.connect",
    "urllib.request.urlopen",
    "requests.get", "requests.post", "requests.request",
}
#: Bare names whose call blocks (sync file I/O).
_BLOCKING_NAMES = {"open", "input"}
#: Attribute *suffixes* that block regardless of the object (sync file IO on
#: pathlib objects).
_BLOCKING_SUFFIXES = {
    "read_text", "write_text", "read_bytes", "write_bytes",
}
#: In service code, direct calls on these objects are storage-backed and
#: blocking unless shipped to a worker thread.
_BLOCKING_OBJECTS = {"manager", "store"}

_NUMPY_GLOBAL_FNS = {
    "seed", "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "uniform", "normal", "standard_normal", "shuffle",
    "permutation", "beta", "binomial", "poisson", "exponential", "gamma",
    "get_state", "set_state",
}
_STDLIB_RANDOM_FNS = {
    "seed", "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "betavariate", "expovariate",
    "getstate", "setstate",
}
#: Handler calls that count as "the failure left a trace".
_EVIDENCE_CALLS = {"emit_event", "inc", "observe", "warn", "warning", "error",
                   "exception", "log", "set_gauge"}
#: Packages where AST301 applies: a fallback there must name the failure it is for.
_SWALLOW_SCOPE = ("repro/service", "repro/execution", "repro/optimizers", "repro/online", "repro/core")


def _dotted(node: ast.expr) -> str:
    """Best-effort dotted name of a call target (``a.b.c`` → ``"a.b.c"``)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _noqa_rules(source_lines: Sequence[str], lineno: int) -> set[str]:
    if 1 <= lineno <= len(source_lines):
        m = _NOQA.search(source_lines[lineno - 1])
        if m:
            return set(re.split(r"[\s,]+", m.group("rules").strip()))
    return set()


class _FileChecker(ast.NodeVisitor):
    def __init__(
        self,
        path: str,
        source: str,
        in_service: bool,
        in_swallow_scope: bool,
        in_optimizers: bool = False,
    ) -> None:
        self.path = path
        self.lines = source.splitlines()
        self.in_service = in_service
        self.in_swallow_scope = in_swallow_scope
        self.in_optimizers = in_optimizers
        self.findings: list[Finding] = []
        self._async_depth = 0
        self._to_thread_depth = 0
        self._loop_depth = 0

    # -- helpers -----------------------------------------------------------
    def _report(self, rule: str, node: ast.AST, message: str, hint: str = "") -> None:
        severity, _ = AST_RULES[rule]
        lineno = getattr(node, "lineno", 0)
        suppressed = rule in _noqa_rules(self.lines, lineno)
        self.findings.append(Finding(
            rule=rule, severity=severity, subject=f"{self.path}:{lineno}",
            message=message, hint=hint, suppressed=suppressed,
        ))

    # -- function scoping --------------------------------------------------
    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._async_depth += 1
        self.generic_visit(node)
        self._async_depth -= 1

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # A sync def nested inside an async def runs wherever it is called —
        # typically handed to to_thread — so it leaves the async scope.
        saved = self._async_depth
        self._async_depth = 0
        self.generic_visit(node)
        self._async_depth = saved

    def visit_Lambda(self, node: ast.Lambda) -> None:
        saved = self._async_depth
        self._async_depth = 0
        self.generic_visit(node)
        self._async_depth = saved

    # -- loop scoping (for AST204) -----------------------------------------
    def _visit_loop(self, node: ast.For | ast.AsyncFor | ast.While) -> None:
        # The iterable/condition evaluates once, outside the per-iteration
        # scope; only the body (and orelse) repeats.
        if isinstance(node, ast.While):
            self.visit(node.test)
        else:
            self.visit(node.target)
            self.visit(node.iter)
        self._loop_depth += 1
        for stmt in [*node.body, *node.orelse]:
            self.visit(stmt)
        self._loop_depth -= 1

    visit_For = visit_AsyncFor = visit_While = _visit_loop

    def _visit_comprehension(
        self, node: ast.ListComp | ast.SetComp | ast.GeneratorExp | ast.DictComp
    ) -> None:
        # The first generator's source iterable evaluates once; element
        # expressions, ifs, and nested iterables run per item.
        self.visit(node.generators[0].iter)
        self._loop_depth += 1
        for gen in node.generators:
            self.visit(gen.target)
            for cond in gen.ifs:
                self.visit(cond)
        for gen in node.generators[1:]:
            self.visit(gen.iter)
        if isinstance(node, ast.DictComp):
            self.visit(node.key)
            self.visit(node.value)
        else:
            self.visit(node.elt)
        self._loop_depth -= 1

    visit_ListComp = visit_SetComp = visit_GeneratorExp = visit_DictComp = _visit_comprehension

    # -- calls -------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        tail = dotted.rsplit(".", 1)[-1]
        self._check_rng(node, dotted, tail)
        self._check_span_names(node, dotted, tail)
        self._check_loop_sampling(node, dotted, tail)
        self._check_retry_sleep(node, dotted, tail)
        if self._async_depth > 0 and self._to_thread_depth == 0:
            self._check_blocking(node, dotted, tail)
        # Arguments of asyncio.to_thread / loop.run_in_executor execute on a
        # worker thread: blocking calls inside them are the *fix*, not a bug.
        if tail in {"to_thread", "run_in_executor"}:
            self._to_thread_depth += 1
            self.generic_visit(node)
            self._to_thread_depth -= 1
        else:
            self.generic_visit(node)

    def _check_blocking(self, node: ast.Call, dotted: str, tail: str) -> None:
        if not self.in_service:
            return
        blocking = (
            dotted in _BLOCKING_CALLS
            or dotted in _BLOCKING_NAMES
            or tail in _BLOCKING_SUFFIXES
        )
        reason = None
        if blocking:
            reason = f"blocking call {dotted or tail!r}"
        else:
            # self.manager.meta(...) / self.store.append(...) style: storage-
            # backed objects whose methods fsync or hit SQLite.
            parts = dotted.split(".")
            if len(parts) >= 3 and parts[0] == "self" and parts[1] in _BLOCKING_OBJECTS:
                reason = f"storage-backed call {dotted!r}"
        if reason:
            self._report(
                "AST101", node,
                f"{reason} inside an async function blocks the service event loop",
                "dispatch it via await asyncio.to_thread(...)",
            )

    def _check_rng(self, node: ast.Call, dotted: str, tail: str) -> None:
        if dotted in {f"np.random.{fn}" for fn in _NUMPY_GLOBAL_FNS} or dotted in {
            f"numpy.random.{fn}" for fn in _NUMPY_GLOBAL_FNS
        }:
            self._report(
                "AST201", node,
                f"{dotted} mutates/draws from NumPy's module-global RNG; campaigns "
                "using it cannot be replayed bit-exactly",
                "thread a seeded np.random.Generator through instead",
            )
        elif dotted in {"random." + fn for fn in _STDLIB_RANDOM_FNS}:
            self._report(
                "AST202", node,
                f"{dotted} draws from the stdlib module-global RNG",
                "use random.Random(seed) or a seeded numpy Generator",
            )
        elif dotted in {"np.random.default_rng", "numpy.random.default_rng"} and not (
            node.args or node.keywords
        ):
            self._report(
                "AST203", node,
                "np.random.default_rng() without a seed draws fresh OS entropy; the "
                "resulting trial stream cannot be replayed",
                "plumb a seed (or rng) parameter down to this call",
            )

    def _check_loop_sampling(self, node: ast.Call, dotted: str, tail: str) -> None:
        if not self.in_optimizers or self._loop_depth == 0:
            return
        if tail not in {"sample", "neighbor"}:
            return
        parts = dotted.split(".")
        # Match space.sample / self.space.neighbor — the receiver must be a
        # configuration space, not e.g. random.sample or a list method.
        if len(parts) < 2 or parts[-2] != "space":
            return
        batched = "sample_many" if tail == "sample" else "neighbor_many"
        self._report(
            "AST204", node,
            f"{dotted}(...) inside a loop/comprehension draws one configuration "
            "per Python iteration — the candidate-generation tail the vectorized "
            "space API exists to remove",
            f"draw the whole batch at once with space.{batched}(...)",
        )

    def _check_retry_sleep(self, node: ast.Call, dotted: str, tail: str) -> None:
        """AST105: retry sleeps in service code must route through the
        shared :class:`repro.resilience.BackoffPolicy`.

        An ``asyncio.sleep(...)`` inside a loop in ``repro/service/`` is a
        retry/poll delay. Jitterless hand-rolled curves (``0.2``,
        ``min(d * 1.5**k, cap)``) synchronise whole client fleets into
        retry storms and ignore server ``Retry-After`` hints; the policy's
        ``.delay(...)`` is the one audited implementation. The exemption is
        purely syntactic: the sleep's argument must be a call whose name
        ends in ``.delay``.
        """
        if not self.in_service or self._loop_depth == 0:
            return
        if dotted not in {"asyncio.sleep", "time.sleep"}:
            return
        if node.args:
            arg = node.args[0]
            if isinstance(arg, ast.Call) and _dotted(arg.func).rsplit(".", 1)[-1] == "delay":
                return  # routed through BackoffPolicy.delay(...)
        self._report(
            "AST105", node,
            f"{dotted}(...) in a retry/poll loop bypasses the shared backoff policy "
            "(no jitter, no Retry-After honouring)",
            "sleep for policy.delay(attempt, rng=..., retry_after=...) from repro.resilience",
        )

    def _check_span_names(self, node: ast.Call, dotted: str, tail: str) -> None:
        if tail not in {"span", "emit_event"} or not node.args:
            return
        first = node.args[0]
        if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
            return
        name = first.value
        registry = SPAN_NAMES if tail == "span" else EVENT_KINDS
        registry_name = "SPAN_NAMES" if tail == "span" else "EVENT_KINDS"
        if name not in registry:
            self._report(
                "AST401", node,
                f"{tail}({name!r}): name is not in the documented telemetry registry "
                f"(repro.telemetry.naming.{registry_name})",
                "fix the typo or register the new name in repro/telemetry/naming.py",
            )

    # -- exception handlers --------------------------------------------------
    def visit_Try(self, node: ast.Try) -> None:
        if self.in_swallow_scope:
            for handler in node.handlers:
                self._check_handler(handler)
        self.generic_visit(node)

    def _check_handler(self, handler: ast.ExceptHandler) -> None:
        broad = handler.type is None or (
            isinstance(handler.type, ast.Name) and handler.type.id in {"Exception", "BaseException"}
        )
        if not broad:
            return
        if self._handler_leaves_evidence(handler):
            return
        what = "bare except:" if handler.type is None else f"except {handler.type.id}"
        self._report(
            "AST301", handler,
            f"{what} swallows the failure: the handler neither re-raises nor emits "
            "an event/metric, so crashes and programming errors disappear silently",
            "re-raise, narrow the exception type, or emit_event/inc a metric in the handler",
        )

    @staticmethod
    def _handler_leaves_evidence(handler: ast.ExceptHandler) -> bool:
        for sub in ast.walk(handler):
            if isinstance(sub, ast.Raise):
                return True
            if isinstance(sub, ast.Call):
                tail = _dotted(sub.func).rsplit(".", 1)[-1]
                if tail in _EVIDENCE_CALLS:
                    return True
        return False


def lint_source(
    source: str,
    path: str = "<string>",
) -> list[Finding]:
    """Run every AST rule over one source text."""
    posix = Path(path).as_posix()
    in_service = "repro/service" in posix
    in_swallow_scope = any(pkg in posix for pkg in _SWALLOW_SCOPE)
    in_optimizers = "repro/optimizers" in posix
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as err:
        return [Finding(
            rule="AST101", severity=Severity.ERROR,
            subject=f"{path}:{err.lineno or 0}", message=f"file does not parse: {err.msg}",
            hint="fix the syntax error",
        )]
    checker = _FileChecker(path, source, in_service, in_swallow_scope, in_optimizers)
    checker.visit(tree)
    return checker.findings


def lint_paths(paths: Iterable[str | Path], root: str | Path | None = None) -> LintReport:
    """Lint ``*.py`` files under the given paths into one report.

    ``root`` (default: the common parent) only affects how subjects are
    rendered — findings use paths relative to it.
    """
    files: list[Path] = []
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            files.append(p)
    base = Path(root) if root is not None else None
    report = LintReport(target=", ".join(str(p) for p in paths) or ".")
    for f in files:
        shown = f
        if base is not None:
            try:
                shown = f.relative_to(base)
            except ValueError:
                pass
        report.extend(lint_source(f.read_text(encoding="utf-8"), str(shown)))
    return report
