"""Source hygiene of the package, read with ``ast``: no ``assert``
statement, since theorem checks must still run under ``python -O``, and no
module-level import left unused, since every ``bsk`` process pays for
loading it."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bs_ktheory"
MODULES = sorted(PACKAGE.glob("*.py"))


def parsed(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "abelian.py", "cli.py", "pv.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert(path):
    lines = [node.lineno for node in ast.walk(parsed(path)) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert on lines {lines}; raise InvariantViolation instead"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_import(path):
    tree = parsed(path)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items() if name not in used}
    assert unused == {}, f"{path.name}: unused imports {unused}"
