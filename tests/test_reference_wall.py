"""Guard: production code stays off the reference substrates.

``repro.reference`` holds the differential oracles — the engine's
per-tx loop, the evented P2P substrate and the stateful mempool.  Only
tests and the bench suites that time against the oracle run them, so no
module outside ``src/repro/reference/`` may import that package.  The
one exception is the function-scoped import in the ``scalar`` branch of
``SimulationEngine._run``, which mirrors the lazy ``produce_fast``
import beside it.

A second check runs in a fresh interpreter: importing the production
entry points must load no ``repro.reference`` module and no
``networkx``.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = SRC / "repro" / "reference"

#: (file, enclosing scope) of the one allowed production import.
ALLOWED = {("repro/simulation/engine.py", "SimulationEngine._run")}


def _is_reference(module: str) -> bool:
    return module == "repro.reference" or module.startswith("repro.reference.")


def _imported_modules(node: ast.AST, package: str) -> list[str]:
    """Absolute names an ``import``/``from ... import`` statement loads."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.level:
        parts = package.split(".")
        base = ".".join(parts[: len(parts) - node.level + 1])
        module = f"{base}.{node.module}" if node.module else base
    else:
        module = node.module or ""
    return [module] + [f"{module}.{alias.name}" for alias in node.names]


def _reference_imports(path: Path) -> list[tuple[str, str, int]]:
    """(file, enclosing scope, line) of each import of repro.reference."""
    relative = path.relative_to(SRC).as_posix()
    package = ".".join(path.relative_to(SRC).with_suffix("").parts)
    if path.name != "__init__.py":
        package = package.rsplit(".", 1)[0]
    found: list[tuple[str, str, int]] = []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if any(map(_is_reference, _imported_modules(node, package))):
                found.append((relative, ".".join(scope), node.lineno))
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                visit(child, scope + (child.name,))
            else:
                visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), ())
    return found


def test_production_modules_do_not_import_reference():
    found = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        if REFERENCE not in path.parents:
            found.extend(_reference_imports(path))
    assert found, "the scalar branch of SimulationEngine._run lost its import"
    stray = [
        f"{file}:{line} (in {scope or 'module scope'})"
        for file, scope, line in found
        if (file, scope) not in ALLOWED
    ]
    assert not stray, "production imports of repro.reference:\n" + "\n".join(
        stray
    )
    assert len(found) == 1, f"expected one allowed import, found {found}"


@pytest.mark.parametrize(
    "module", ["repro.cli", "repro.datasets.builder", "repro.service.server"]
)
def test_production_import_loads_no_reference_code(module):
    probe = (
        "import json, sys\n"
        f"import {module}\n"
        "print(json.dumps(sorted(\n"
        "    name for name in sys.modules\n"
        "    if name == 'networkx' or name.startswith(('networkx.', 'repro.reference'))\n"
        ")))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
        check=True,
    )
    assert json.loads(done.stdout) == [], done.stdout
