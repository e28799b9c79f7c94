"""No unused imports in ``src tests benchmarks examples``.

The CI lint job runs ``ruff check`` over the same directories, and its
default rules include F401 (an import nothing reads).  This is an AST
approximation of that rule kept in tier 1: an imported name counts as
used when the module reads it anywhere (annotations included, quoted
ones parsed), lists it in ``__all__`` or re-exports it as ``import x as
x``; ``__init__.py`` files re-export by design and are skipped, as are
``from __future__`` imports.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIRS = ("src", "tests", "benchmarks", "examples")


def _annotation_names(node: ast.AST) -> set[str]:
    """Names read by an annotation, parsing the quoted ones."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """``(line, name)`` of every import the module never reads."""
    tree = ast.parse(path.read_text(), str(path))
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*" or alias.asname == alias.name:
                    continue  # star imports and explicit re-exports
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs,
                        node.args.vararg, node.args.kwarg):
                if arg is not None and arg.annotation is not None:
                    used |= _annotation_names(arg.annotation)
            if node.returns is not None:
                used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {
                e.value for e in ast.walk(node.value)
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            }
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    files = [
        f for d in DIRS for f in sorted((ROOT / d).rglob("*.py"))
        if f.name != "__init__.py"
    ]
    assert files
    bad = [
        f"{f.relative_to(ROOT)}:{line} {name}"
        for f in files for line, name in unused_imports(f)
    ]
    assert not bad, "unused imports:\n  " + "\n  ".join(bad)


def test_the_scan_sees_an_unused_import(tmp_path):
    """The scan flags what F401 flags and keeps what it keeps."""
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import os\nimport sys as sys\nfrom typing import TYPE_CHECKING\n"
        "import json\n__all__ = ['json']\n"
        "if TYPE_CHECKING:\n    from pathlib import Path\n"
        "def f(p: 'Path') -> None:\n    return None\n"
    )
    assert unused_imports(mod) == [(1, "os")]
