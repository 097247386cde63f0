"""Call census, recording half: (caller, callee) edges for callees under ``src/repro``, one dump per pid.

Does nothing unless ``CENSUS_OUT`` names a directory. Copy it next to the package
(``cp tests/census/sitecustomize.py src/``, git-ignored) so every interpreter started with
``PYTHONPATH=src`` loads it — ``repro serve``, ``test_import_budget.fresh`` and the perf server included.
"""
import atexit, os, sys, threading

OUT = os.environ.get("CENSUS_OUT")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__))) + os.sep  # the checkout, seen from src/
SRC = ROOT + os.path.join("src", "repro", "")
edges = set()


def _profile(frame, event, arg):
    if event != "call" or not frame.f_code.co_filename.startswith(SRC):
        return
    caller = frame.f_back
    while caller is not None and not caller.f_code.co_filename.startswith(ROOT):
        caller = caller.f_back  # skip stdlib / site-packages frames: which file of the checkout asked?
    edges.add((caller.f_code if caller else None, frame.f_code))


def _dump():
    import json
    sys.setprofile(None)
    outside = "tests/<python -c>" if sys.argv[:1] == ["-c"] else "<outside>"  # only the tests spawn `-c` snippets
    key = lambda co: [os.path.relpath(co.co_filename, ROOT), co.co_firstlineno] if co else [outside, 0]
    with open(os.path.join(OUT, f"{os.getpid()}.json"), "w") as fh:
        json.dump([[key(a), key(b)] for a, b in list(edges)], fh)


if OUT:
    threading.setprofile(_profile)
    sys.setprofile(_profile)
    atexit.register(_dump)
