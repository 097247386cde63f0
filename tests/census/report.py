"""Census, reading half: ``python tests/census/report.py DUMP_DIR`` lists what no workload reaches or sets.

A function is *reached* when a frame outside ``tests/`` gets to it over the merged call graph, *test-only*
when only frames under ``tests/`` do, *never called* otherwise. Lines are counted from ``def`` to the end.

A defaulted parameter is *set* when some call outside ``tests/`` bound it to a value other than its default,
*test-only* when only test-driven calls did, *nobody* when every call left it at the default (or none was
made). Dataclass fields come from the static pass in ``options.py`` (their ``__init__`` is generated code).
"""
import ast, json, sys
from pathlib import Path

from options import census as static_census

ROOT = Path(__file__).resolve().parents[2]
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def functions():
    """``{(path, first line incl. decorators): (qualified name, non-blank lines, defaulted parameters)}``."""
    found = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        lines = path.read_text().splitlines()

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, DEFS):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    body = sum(1 for line in lines[child.lineno - 1:child.end_lineno] if line.strip())
                    a = child.args
                    defaulted = [p.arg for p in (a.posonlyargs + a.args)[len(a.posonlyargs + a.args) - len(a.defaults):]]
                    defaulted += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                    found[(str(path.relative_to(ROOT)), first)] = (prefix + child.name, body, defaulted)
                visit(child, f"{prefix}{child.name}." if isinstance(child, (*DEFS, ast.ClassDef)) else prefix)

        visit(ast.parse("\n".join(lines)), "")
    return found


def reach(graph, start):
    seen, todo = set(start), list(start)
    while todo:
        new = graph.get(todo.pop(), set()) - seen
        seen |= new
        todo.extend(new)
    return seen


def main(dump_dir):
    graph, roots = {}, {True: set(), False: set()}  # roots[caller is under tests/]
    bound = {}  # (path, line) -> {parameter: [default, live values, test values]}
    for dump in Path(dump_dir).glob("*.json"):
        data = json.loads(dump.read_text())
        for (caller_file, caller_line), callee in data["edges"]:
            inside = caller_file.startswith("src/repro/")
            (graph.setdefault((caller_file, caller_line), set()) if inside
             else roots[caller_file.startswith("tests/")]).add(tuple(callee))
        for key, params in data["bindings"]:
            merged = bound.setdefault(tuple(key), {})
            for name, (default, live, test) in params.items():
                entry = merged.setdefault(name, [default, set(), set()])
                entry[1].update(live)
                entry[2].update(test)
    defs = functions()
    live = reach(graph, roots[False])
    tested = reach(graph, roots[True]) - live
    totals = {}
    for key, (name, body, _) in sorted(defs.items()):
        verdict = "reached" if key in live else "test-only" if key in tested else "never called"
        count, lines = totals.get(verdict, (0, 0))
        totals[verdict] = (count + 1, lines + body)
        if verdict != "reached":
            print(f"{verdict:12}  {body:4}  {key[0]}:{key[1]}  {name}")
    for verdict, (count, lines) in totals.items():
        print(f"# {verdict}: {count} functions, {lines} lines")

    print("\n# options: parameter, default, values seen")
    packages = {}

    def row(package, verdict, text):
        packages.setdefault(package, {"set": 0, "test-only": 0, "nobody": 0})[verdict] += 1
        if verdict != "set":
            print(f"{verdict:9}  {text}")

    for key, (name, _, defaulted) in sorted(defs.items()):
        for param in defaulted:
            default, seen_live, seen_test = bound.get(key, {}).get(param, ["?", (), ()])
            verdict = "set" if seen_live else "test-only" if seen_test else "nobody"
            called = "" if key in bound else "  (never called)"
            row(key[0].split("/")[2].removesuffix(".py"), verdict,
                f"{key[0]}:{key[1]}  {name}({param}={default})  {sorted(seen_test) or ''}{called}")
    for key, (default, verdict, is_field) in sorted(static_census().items()):
        if is_field:
            row(key.split(".")[1], "set" if verdict == "live" else verdict, f"{key} = {default}  (dataclass field, static)")
    print(f"# {'package':14} defaulted  test-only  nobody")
    packages["TOTAL"] = {v: sum(p[v] for p in packages.values()) for v in ("set", "test-only", "nobody")}
    for package, p in sorted(packages.items()):
        print(f"# {package:14} {sum(p.values()):9}  {p['test-only']:9}  {p['nobody']:6}")


if __name__ == "__main__":
    main(sys.argv[1])
