"""The package as a whole: its module import graph and README's Python example."""

import ast
import contextlib
import io
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wordgrid"


def _imports(path):
    """(names of the sibling modules a module imports, imports inside a function)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    siblings = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1}
    nested = [(fn.name, node.lineno) for fn in ast.walk(tree)
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    return siblings, nested


def test_module_imports_form_no_cycle_and_sit_at_module_level():
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        siblings, nested = _imports(path)
        assert not nested, (path.name, nested)
        graph[path.stem] = siblings
    assert "constructions" in graph["bounds"]  # bracket's lower end is best_construction
    done, on_path = set(), []

    def visit(module):
        assert module not in on_path, on_path[on_path.index(module):] + [module]
        if module in done:
            return
        on_path.append(module)
        for imported in sorted(graph[module]):
            visit(imported)
        on_path.pop()
        done.add(module)

    for module in sorted(graph):
        visit(module)


def test_readme_quick_start_prints_what_its_comments_show():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Quick start\n\n```python\n", 1)[1].split("```", 1)[0]
    namespace, checked = {}, 0
    for line in block.splitlines():
        code, _, shown = line.partition("  # ")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(code, namespace)
        if shown:
            assert out.getvalue() == shown.strip() + "\n", line
            checked += 1
        else:
            assert out.getvalue() == "", line
    assert checked == 3
