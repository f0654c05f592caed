"""Source hygiene: no module imports a name it never uses, and no private
name of ``src/`` is dead.

AST scans.  Of every module in ``src/`` and ``tests/``: each name an import
binds must be read somewhere in its module.  A package's ``__init__.py``
imports to re-export, so it is not scanned.  Of ``src/`` as a whole: each
private module-level function, class or constant (one leading underscore)
must be read somewhere in ``src/``, as a name or as an attribute.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every name bound by an import and never read."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_the_scan_finds_an_unused_import_and_passes_a_used_one():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from typing import Callable as C, Any\n"
        "def f(x: C) -> float:\n"
        "    return os.path.sep\n"
    )
    assert unused_imports(source) == [(2, "math"), (4, "Any")]


def test_no_module_imports_a_name_it_never_uses():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for top in ("src", "tests")
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]
    assert found == []


def private_names(source: str) -> list[tuple[int, str]]:
    """(line, name) of every private module-level function, class or constant."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        found += [
            (node.lineno, name) for name in names
            if name.startswith("_") and not name.startswith("__")
        ]
    return found


def read_names(source: str) -> set[str]:
    """Every name the source reads, bare or as an attribute."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            read.add(node.attr)
    return read


def test_the_scan_finds_a_dead_private_name_and_passes_a_read_one():
    source = (
        "import m\n"
        "def _used(): pass\n"
        "def _dead(): pass\n"
        "_CONST, __dunder__ = 1, 2\n"
        "class _Kind: pass\n"
        "_table: dict = {}\n"
        "x = _used(), m._table\n"
    )
    read = read_names(source)
    dead = [(line, name) for line, name in private_names(source) if name not in read]
    assert dead == [(3, "_dead"), (4, "_CONST"), (5, "_Kind")]


def test_every_private_module_level_name_in_src_is_read_in_src():
    sources = {path: path.read_text() for path in sorted((ROOT / "src").rglob("*.py"))}
    read = set().union(*(read_names(source) for source in sources.values()))
    dead = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path, source in sources.items()
        for line, name in private_names(source)
        if name not in read
    ]
    assert dead == []
