"""Census, recording half: call edges and parameter bindings for callees under ``src/repro``, one dump per pid.

Edges are ``(caller, callee)`` pairs. Bindings compare, at every call, each defaulted parameter's bound value
with its default and keep the non-default values seen, split by whether a frame under ``tests/`` is on the
stack (``CENSUS_TESTS=1`` marks the whole process tree as test-driven: worker threads and ``repro serve``
children of a test have no test frame below them). Dataclass ``__init__``s are generated code and never seen
here; ``options.py`` covers their fields statically.

Does nothing unless ``CENSUS_OUT`` names a directory. Copy it next to the package
(``cp tests/census/sitecustomize.py src/``, git-ignored) so every interpreter started with
``PYTHONPATH=src`` loads it — ``repro serve``, ``test_import_budget.fresh`` and the perf server included.
"""
import atexit, gc, os, sys, threading, types

OUT = os.environ.get("CENSUS_OUT")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__))) + os.sep  # the checkout, seen from src/
SRC = ROOT + os.path.join("src", "repro", "")
TESTS = ROOT + "tests" + os.sep
TEST_PROCESS = bool(os.environ.get("CENSUS_TESTS")) or sys.argv[:1] == ["-c"]  # only the tests spawn `-c` snippets
KEEP = 6  # distinct non-default values remembered per parameter and side
edges = set()
bindings = {}  # code -> {parameter: (default, live values, test values)}, or None for a function without defaults


def _function(frame):
    """The function object a frame runs: by qualified name, else whatever the collector knows refers to the code."""
    code, found = frame.f_code, sys.modules.get(frame.f_globals.get("__name__"))
    for part in code.co_qualname.split("."):
        found = vars(found).get(part) if hasattr(found, "__dict__") else None
    for attr in ("__func__", "fget", "__wrapped__"):
        found = getattr(found, attr, found)
    if getattr(found, "__code__", None) is code:
        return found
    return next((f for f in gc.get_referrers(code) if isinstance(f, types.FunctionType) and f.__code__ is code), None)


def _defaults(frame):
    fn, code = _function(frame), frame.f_code
    if fn is None:
        return None
    positional = code.co_varnames[:code.co_argcount]
    found = dict(zip(positional[len(positional) - len(fn.__defaults__ or ()):], fn.__defaults__ or ()))
    found.update(fn.__kwdefaults__ or {})
    return {name: (default, set(), set()) for name, default in found.items()} or None


def _under_tests(frame):
    while frame is not None:
        if frame.f_code.co_filename.startswith(TESTS):
            return True
        frame = frame.f_back
    return False


def _profile(frame, event, arg):
    code = frame.f_code
    if event != "call" or not code.co_filename.startswith(SRC):
        return
    caller = frame.f_back
    while caller is not None and not caller.f_code.co_filename.startswith(ROOT):
        caller = caller.f_back  # skip stdlib / site-packages frames: which file of the checkout asked?
    edges.add((caller.f_code if caller else None, code))
    if code not in bindings:
        bindings[code] = None  # first, so that a re-entrant call below finds an entry
        bindings[code] = _defaults(frame)
    params = bindings[code]
    if params is None:
        return
    values = frame.f_locals
    for name, (default, live, test) in params.items():
        if len(live) >= KEEP or name not in values:
            continue
        value = values[name]
        try:
            if value is default or (type(value) is type(default) and bool(value == default)):
                continue
        except Exception:  # an array's ``==`` has no truth value: not the default
            pass
        side = test if TEST_PROCESS or _under_tests(frame) else live
        if len(side) < KEEP:
            side.add(repr(value)[:60] if isinstance(value, (int, float, str, bool, tuple, type(None))) else type(value).__name__)


def _dump():
    import json
    sys.setprofile(None)
    outside = "tests/<python -c>" if TEST_PROCESS else "<outside>"
    key = lambda co: [os.path.relpath(co.co_filename, ROOT), co.co_firstlineno] if co else [outside, 0]
    seen = [[key(co), {name: [repr(default)[:60], sorted(live), sorted(test)] for name, (default, live, test) in params.items()}]
            for co, params in list(bindings.items()) if params]
    with open(os.path.join(OUT, f"{os.getpid()}.json"), "w") as fh:
        json.dump({"edges": [[key(a), key(b)] for a, b in list(edges)], "bindings": seen}, fh)


if OUT:
    threading.setprofile(_profile)
    sys.setprofile(_profile)
    atexit.register(_dump)
