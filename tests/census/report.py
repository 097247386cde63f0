"""Call census, reading half: ``python tests/census/report.py DUMP_DIR`` lists what no workload reaches.

A function is *reached* when a frame outside ``tests/`` gets to it over the merged call graph, *test-only*
when only frames under ``tests/`` do, *never called* otherwise. Lines are counted from ``def`` to the end.
"""
import ast, json, sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def functions():
    """``{(path, first line incl. decorators): (qualified name, non-blank lines)}`` under src/repro."""
    found = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        lines = path.read_text().splitlines()

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, DEFS):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    body = sum(1 for line in lines[child.lineno - 1:child.end_lineno] if line.strip())
                    found[(str(path.relative_to(ROOT)), first)] = (prefix + child.name, body)
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
    for dump in Path(dump_dir).glob("*.json"):
        for (caller_file, caller_line), callee in json.loads(dump.read_text()):
            inside = caller_file.startswith("src/repro/")
            (graph.setdefault((caller_file, caller_line), set()) if inside
             else roots[caller_file.startswith("tests/")]).add(tuple(callee))
    live = reach(graph, roots[False])
    tested = reach(graph, roots[True]) - live
    totals = {}
    for key, (name, body) in sorted(functions().items()):
        verdict = "reached" if key in live else "test-only" if key in tested else "never called"
        count, lines = totals.get(verdict, (0, 0))
        totals[verdict] = (count + 1, lines + body)
        if verdict != "reached":
            print(f"{verdict:12}  {body:4}  {key[0]}:{key[1]}  {name}")
    for verdict, (count, lines) in totals.items():
        print(f"# {verdict}: {count} functions, {lines} lines")


if __name__ == "__main__":
    main(sys.argv[1])
