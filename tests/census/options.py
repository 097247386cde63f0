"""Options census, static half: every defaulted parameter under ``src/repro`` and who passes it.

``python tests/census/options.py`` prints one row per defaulted parameter or dataclass field that no call
site under ``src/``, ``benchmarks/`` or ``examples/`` passes, marked ``test-only`` when a call site under
``tests/`` does and ``nobody`` otherwise, and the per-package totals. Call sites are resolved *by name*
(``x.fit(X, y, w)`` passes the third parameter of every ``fit``), so a row here is certain and a missing row
is not: the binding half (``sitecustomize.py`` + ``report.py``) compares values at run time.
``tests/test_public_surface.py::test_every_option_is_set_or_excused`` runs this pass as a ratchet.
"""
from __future__ import annotations

import ast, json
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
LIVE_TOPS = ("src", "benchmarks", "examples")
#: Keywords and names whose dict-literal keys reach an optimizer constructor through ``make_optimizer``.
OPTION_CARRIERS = {"options", "optimizer_options", "_OPTIMIZER_OPTIONS"}


@dataclass
class Callable_:
    """One function, method or class constructor: ``owner`` is its dotted name (a class for ``__init__``)."""
    owner: str
    positional: list[str]            # without self/cls
    defaulted: dict[str, str]        # parameter -> source of its default
    forwards: bool = False           # takes *args/**kwargs and hands them to the base constructor
    bases: list[str] = field(default_factory=list)  # for constructors: base class names
    is_ctor: bool = False
    is_dataclass: bool = False
    passed: set[str] = field(default_factory=set)


def _dataclass_like(node: ast.ClassDef) -> bool:
    return any("dataclass" in ast.unparse(d) for d in node.decorator_list)


def _from_def(owner: str, fn, method: bool) -> Callable_:
    a = fn.args
    static = any(ast.unparse(d) == "staticmethod" for d in fn.decorator_list)
    pos = [p.arg for p in a.posonlyargs + a.args][1 if method and not static else 0:]
    defaulted = {p.arg: ast.unparse(d) for p, d in zip(reversed(a.posonlyargs + a.args), reversed(a.defaults))}
    defaulted.update({p.arg: ast.unparse(d) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None})
    return Callable_(owner, pos, defaulted, forwards=bool(a.vararg or a.kwarg))


def definitions() -> dict[str, list[Callable_]]:
    """Short name -> everything under src/repro a call spelled with that name may reach."""
    by_name: dict[str, list[Callable_]] = {}
    classes: dict[str, tuple[ast.ClassDef, str]] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts).removesuffix(".__init__")

        def visit(node, prefix, in_class):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, DEFS):
                    if not (in_class and child.name == "__init__"):
                        by_name.setdefault(child.name, []).append(_from_def(f"{prefix}.{child.name}", child, in_class))
                    visit(child, f"{prefix}.{child.name}", False)
                elif isinstance(child, ast.ClassDef):
                    classes[child.name] = (child, f"{prefix}.{child.name}")
                    visit(child, f"{prefix}.{child.name}", True)
                else:
                    visit(child, prefix, in_class)

        visit(ast.parse(path.read_text()), module, False)
    for name, (node, owner) in classes.items():
        init = next((c for c in node.body if isinstance(c, DEFS) and c.name == "__init__"), None)
        if init is not None:
            ctor = _from_def(owner, init, True)
        else:
            fields = [c for c in node.body if isinstance(c, ast.AnnAssign) and "ClassVar" not in ast.unparse(c.annotation)]
            flat = _dataclass_like(node)
            ctor = Callable_(owner, [c.target.id for c in fields] if flat else [],
                             {c.target.id: ast.unparse(c.value) for c in fields if c.value is not None} if flat else {},
                             forwards=True, is_dataclass=flat)
        ctor.is_ctor = True
        ctor.bases = [ast.unparse(b).split(".")[-1].split("[")[0] for b in node.bases]
        by_name.setdefault(name, []).append(ctor)
    return by_name


def _constructor_chain(by_name, ctor):
    """``ctor`` and, while it forwards what it does not name, its bases' constructors."""
    seen, todo = [], [ctor]
    while todo:
        c = todo.pop()
        seen.append(c)
        if c.forwards:
            todo.extend(b for base in c.bases for b in by_name.get(base, []) if b.is_ctor and b not in seen)
    return seen


def _apply(by_name, target: Callable_, call: ast.Call, skip: int = 0) -> None:
    args = call.args[skip:]
    everything = any(isinstance(a, ast.Starred) for a in args)
    for t in _constructor_chain(by_name, target) if target.is_ctor else [target]:
        t.passed.update(t.positional if everything else t.positional[:len(args)])
        for kw in call.keywords:
            if kw.arg is not None:
                t.passed.add(kw.arg)
            elif isinstance(kw.value, ast.Dict):
                t.passed.update(k.value for k in kw.value.keys if isinstance(k, ast.Constant))
            elif not (isinstance(kw.value, ast.Name) and kw.value.id == "kwargs"):
                t.passed.update(t.defaulted)  # **something built elsewhere: assume it can carry any name


def _string_keys(node) -> set[str]:
    return {k.value for d in ast.walk(node) if isinstance(d, ast.Dict) for k in d.keys
            if isinstance(k, ast.Constant) and isinstance(k.value, str)}


def mark_passed(by_name, tops) -> None:
    """Mark every parameter some call under ``tops`` passes, by position, keyword or option key."""
    option_keys: set[str] = set()
    if "src" in tops:  # a stored golden journal's spec is a caller too
        for meta in (ROOT / "tests" / "data" / "journals").glob("*.meta.json"):
            option_keys |= set(json.loads(meta.read_text())["optimizer"]["options"])
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            enclosing = {}
            for cls in ast.walk(tree):
                if isinstance(cls, ast.ClassDef):
                    enclosing.update({id(n): cls for n in ast.walk(cls) if isinstance(n, ast.Call)})
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) in OPTION_CARRIERS:
                    option_keys |= _string_keys(node.value)
                if not isinstance(node, ast.Call):
                    continue
                for kw in node.keywords:
                    if kw.arg in OPTION_CARRIERS:
                        option_keys |= _string_keys(kw.value)
                func = node.func
                name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
                if name == "replace":  # dataclasses.replace(obj, field=...)
                    for c in (c for cs in by_name.values() for c in cs if c.is_dataclass):
                        c.passed.update(kw.arg for kw in node.keywords if kw.arg)
                if name == "partial" and node.args:
                    inner = node.args[0]
                    name = inner.id if isinstance(inner, ast.Name) else getattr(inner, "attr", None)
                    for target in by_name.get(name, []):
                        _apply(by_name, target, node, skip=1)
                    continue
                if name == "__init__" and id(node) in enclosing:  # super().__init__(...) / Base.__init__(self, ...)
                    for base in (ast.unparse(b).split(".")[-1] for b in enclosing[id(node)].bases):
                        for target in by_name.get(base, []):
                            _apply(by_name, target, node, skip=0 if "super" in ast.unparse(func) else 1)
                    continue
                # a name this tree does not define may hold an instance: `self.kernel(X, eval_gradient=True)`
                for target in by_name.get(name) or by_name["__call__"]:
                    _apply(by_name, target, node)
    optimizers = {c.owner for cs in by_name.values() for c in cs if _is_optimizer(by_name, c)}
    for cs in by_name.values():
        for c in cs:
            if c.owner in optimizers:
                c.passed.update(option_keys & set(c.defaulted))


def _is_optimizer(by_name, ctor, depth=0) -> bool:
    return depth < 8 and ("Optimizer" in ctor.bases or any(
        _is_optimizer(by_name, b, depth + 1) for base in ctor.bases for b in by_name.get(base, [])))


def census() -> dict[str, tuple[str, str, bool]]:
    """``{"repro.pkg.mod.Owner.param": (default source, "live" | "test-only" | "nobody", is a dataclass field)}``."""
    live, everyone = definitions(), definitions()
    mark_passed(live, LIVE_TOPS)
    mark_passed(everyone, LIVE_TOPS + ("tests",))
    rows = {}
    for name, ctors in live.items():
        for c, c_all in zip(ctors, everyone[name]):
            for param, default in c.defaulted.items():
                verdict = "live" if param in c.passed else "test-only" if param in c_all.passed else "nobody"
                rows[f"{c.owner}.{param}"] = (default, verdict, c.is_dataclass)
    return rows


def main() -> None:
    rows = census()
    totals: dict[str, dict[str, int]] = {}
    for key, (default, verdict, _) in sorted(rows.items()):
        package = key.split(".")[1]
        totals.setdefault(package, dict.fromkeys(("live", "test-only", "nobody"), 0))[verdict] += 1
        if verdict != "live":
            print(f"{verdict:9}  {key} = {default}")
    print(f"# {'package':14} defaulted  test-only  nobody")
    for package, t in sorted(totals.items()) + [("TOTAL", {v: sum(t[v] for t in totals.values()) for v in ("live", "test-only", "nobody")})]:
        print(f"# {package:14} {sum(t.values()):9}  {t['test-only']:9}  {t['nobody']:6}")


if __name__ == "__main__":
    main()
