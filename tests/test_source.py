"""Source hygiene of the package, read with ``ast``: no ``assert``
statement, since theorem checks must still run under ``python -O``, no
module-level import left unused, since every ``bsk`` process pays for
loading it, and no module-level definition without a caller."""

import ast
from pathlib import Path

import pytest

import bs_ktheory

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bs_ktheory"
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


def names_read(node: ast.AST) -> set[str]:
    """Names, attributes, imported names and string constants under ``node``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def test_every_definition_has_a_caller():
    """Each module-level def or class is named in src/ outside its own
    definition, exported in ``__all__``, or read by perfbench/ (which rebinds
    and calls some internals by name); ``__init__``'s dunders are exempt."""
    definitions = []  # (module, name, node)
    nodes = []
    for path in MODULES:
        for node in parsed(path).body:
            nodes.append(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not (path.name == "__init__.py" and node.name.startswith("__")):
                    definitions.append((path.name, node.name, node))
    perfbench = set().union(*(names_read(parsed(p)) for p in sorted((ROOT / "perfbench").glob("*.py"))))
    exported = set(bs_ktheory.__all__)
    reads = [(node, names_read(node)) for node in nodes]
    orphans = [
        f"{module}: {name}"
        for module, name, own in definitions
        if name not in exported
        and name not in perfbench
        and not any(name in names for node, names in reads if node is not own)
    ]
    assert orphans == [], f"no caller in src/, __all__ or perfbench/: {orphans}"
