"""Guard: every function, class and method defined in ``src/`` is used.

A definition counts as used when its name is referenced anywhere in the
project's Python sources — ``src/``, ``tests/``, ``benchmarks/``,
``examples/`` or ``perfbench/`` — as a name, an attribute, an imported
name, or a string literal that is exactly the name (``getattr``-style
patching).  A package re-export is not a use: a name that appears only
in an import or in ``__all__`` of a ``src/**/__init__.py`` is dead.
Definition sites themselves, docstrings and comments do not count.
Dunder methods are called by the language, not by name, so they are not
checked.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "tests", "benchmarks", "examples", "perfbench")

#: ``http.server`` request-handler hooks: the base class calls them.
ALLOWED = frozenset({"do_GET", "do_POST", "log_message"})


def _python_files(directory: str) -> list[Path]:
    return sorted((ROOT / directory).rglob("*.py"))


def _reexport_nodes(tree: ast.AST) -> set[int]:
    """ids of the nodes of a package's imports and its ``__all__``."""
    skipped: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            skipped.update(id(alias) for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            if any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in targets
            ):
                skipped.update(id(child) for child in ast.walk(node.value))
    return skipped


def _references(tree: ast.AST, skipped: set[int]) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
    return names


def _definitions(tree: ast.AST) -> list[tuple[str, int]]:
    defs = []
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            name = node.name
            if not (name.startswith("__") and name.endswith("__")):
                defs.append((name, node.lineno))
    return defs


def test_no_unreferenced_definitions_in_src():
    referenced: set[str] = set()
    defined: list[tuple[Path, str, int]] = []
    for directory in SEARCHED:
        for path in _python_files(directory):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            package = directory == "src" and path.name == "__init__.py"
            skipped = _reexport_nodes(tree) if package else set()
            referenced |= _references(tree, skipped)
            if directory == "src":
                defined.extend(
                    (path, name, line) for name, line in _definitions(tree)
                )
    assert defined, "found no definitions under src/"
    dead = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path, name, line in defined
        if name not in referenced and name not in ALLOWED
    ]
    assert not dead, "unreferenced definitions:\n" + "\n".join(dead)
