"""The package as a whole: its module import graph, README's Python example,
the names the package root re-exports, and no definition that nothing names."""

import ast
import contextlib
import io
import re
from pathlib import Path

import wordgrid

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


def test_every_public_function_and_class_is_re_exported():
    # README: "Everything public is re-exported from the package root";
    # verify and cli are command plumbing, not library modules
    missing = []
    for module in ("core", "lines", "occurrence", "constructions", "bounds", "solver"):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        missing += [f"{module}.{node.name}" for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and node.name not in wordgrid.__all__]
    assert missing == []
    assert all(hasattr(wordgrid, name) for name in wordgrid.__all__)


def _definitions(path):
    """(name, first line, last line) of each function, class and module-level
    constant the module defines; dunder names are called by Python itself."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    nodes = [node for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    names = [(node.name, node) for node in nodes]
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
    return [(name, node.lineno, node.end_lineno) for name, node in names
            if not (name.startswith("__") and name.endswith("__"))]


def test_every_definition_is_named_outside_itself():
    sources = [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py"),
               *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
               ROOT / "README.md"]
    texts = {path: path.read_text(encoding="utf-8").splitlines() for path in sources}
    dead = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, first, last in _definitions(path):
            word = re.compile(rf"\b{name}\b")
            if not any(word.search(line) for other, lines in texts.items()
                       for number, line in enumerate(lines, 1)
                       if not (other == path and first <= number <= last)):
                dead.append(f"{path.stem}.{name}")
    assert dead == []
