"""Source hygiene: no module imports a name it never uses, no private name
of ``src/`` is dead, no code in ``src/`` branches on a family's name, and
no config field is read outside its object's table.

AST scans.  Of every module in ``src/`` and ``tests/``: each name an import
binds must be read somewhere in its module.  A package's ``__init__.py``
imports to re-export, so it is not scanned.  Of ``src/`` as a whole: each
private module-level function, class or constant (one leading underscore)
must be read somewhere in ``src/``, as a name or as an attribute; a loss
family's facts are read from its class, never by testing its name, except
in the one registry lookup of ``problems``; and ``config_field`` is called
only by ``read_config``, which refuses every field its table does not name,
except to read the field that picks a table.
"""

import ast
from pathlib import Path

from batchstab.problems import FAMILIES

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


def family_branches(source: str) -> list[tuple[int, str]]:
    """(line, enclosing function) of every place the source branches on the
    name of a loss family: a comparison of ``.family`` or of a ``family``
    name with a string, a comparison with a family's name, a membership
    test in a tuple of family names (or a ``*FAMILIES`` table), a table
    indexed by a family (``t[family]``, ``t.get(x.family)``), a dict keyed
    by family names, or a ``.startswith`` test of a family."""

    def is_family(node):
        return (isinstance(node, ast.Attribute) and node.attr == "family") or (
            isinstance(node, ast.Name) and node.id == "family"
        )

    def is_name(node):
        return isinstance(node, ast.Constant) and node.value in FAMILIES

    def is_names(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(is_name(e) for e in node.elts)
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
        return name.endswith("FAMILIES")

    def branches(node) -> bool:
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            strings = [o for o in operands if isinstance(o, ast.Constant)
                       and isinstance(o.value, str)]
            return (
                any(map(is_name, operands))
                or (any(map(is_family, operands)) and bool(strings))
                or any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)
                and any(map(is_names, node.comparators))
            )
        if isinstance(node, ast.Subscript):
            return is_family(node.slice)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "get":
                return bool(node.args) and is_family(node.args[0])
            return node.func.attr in ("startswith", "endswith") and is_family(
                node.func.value
            )
        if isinstance(node, ast.Dict):
            return any(k is not None and is_name(k) for k in node.keys)
        return False

    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
        if branches(node):
            found.append((node.lineno, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "")
    return found


def test_the_scan_finds_each_branch_on_a_family_name():
    source = (
        "def f(instance, cfg, kind, family, TABLE):\n"
        "    if instance.family == 'convex_huber': pass\n"
        "    if family != 'custom': pass\n"
        "    if instance.family not in QUADRATIC_FAMILIES: pass\n"
        "    if kind in ('quadratic_nonconvex', 'other'): pass\n"
        "    x = TABLE[family]\n"
        "    y = TABLE.get(instance.family, 0)\n"
        "    z = {'linear': 1}\n"
        "    if instance.family.startswith('quadratic'): pass\n"
        "    if kind == 'linear': pass\n"
        "class C:\n"
        "    family = 'linear'\n"
        "    def g(self):\n"
        "        return f'family {self.family!r}', {self.family: 1}, kind == 'x'\n"
    )
    assert family_branches(source) == [(line, "f") for line in range(2, 11)]


def test_no_code_in_src_branches_on_a_family_name():
    # A family's facts are its class's: the one lookup by name is the
    # registry that maps a config's family string to its class.
    found = [
        f"{path.relative_to(ROOT)}: {where}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for _, where in family_branches(path.read_text())
    ]
    assert found == ["src/batchstab/problems.py: family_class"]


# The fields read before their object's table, since they pick it: an
# instance's family, a sweep's mode, a dump's what.
TABLE_PICKERS = ("family", "mode", "what")


def stray_config_reads(source: str) -> list[tuple[int, str]]:
    """(line, enclosing function) of every use of ``config_field`` outside
    ``read_config`` other than a call that reads a field of TABLE_PICKERS
    by its literal name."""

    def is_reader(node):
        return (isinstance(node, ast.Name) and node.id == "config_field") or (
            isinstance(node, ast.Attribute) and node.attr == "config_field"
        )

    def picks_a_table(call):
        names = call.args[1:2] + [k.value for k in call.keywords if k.arg == "name"]
        return any(
            isinstance(n, ast.Constant) and n.value in TABLE_PICKERS for n in names
        )

    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = node.name
        if where == "read_config":
            return
        if isinstance(node, ast.Call) and is_reader(node.func) and picks_a_table(node):
            children = [*node.args, *node.keywords]
        else:
            if is_reader(node):
                found.append((node.lineno, where))
            children = ast.iter_child_nodes(node)
        for child in children:
            visit(child, where)

    visit(ast.parse(source), "")
    return found


def test_the_scan_finds_each_config_read_outside_the_table_reader():
    source = (
        "from m import config_field\n"
        "def read_config(cfg, table, where):\n"
        "    return {k: config_field(cfg, k, *r) for k, r in table.items()}\n"
        "def pick(cfg):\n"
        "    return config_field(cfg, 'family', str), m.config_field(cfg, name='mode')\n"
        "def stray(cfg):\n"
        "    return config_field(cfg, 'trials', int)\n"
        "def aliased(cfg):\n"
        "    read = config_field\n"
        "    return m.config_field(cfg, 'what' + 's', str)\n"
        "def nested(cfg):\n"
        "    return config_field(config_field(cfg, 'sweep', dict), 'mode', str)\n"
    )
    assert stray_config_reads(source) == [
        (7, "stray"), (9, "aliased"), (10, "aliased"), (12, "nested"),
    ]


def test_every_config_field_in_src_is_read_through_its_table():
    # A field read beside its table would escape the table's refusal of the
    # fields it does not name.
    found = [
        f"{path.relative_to(ROOT)}:{line}: {where}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for line, where in stray_config_reads(path.read_text())
    ]
    assert found == []
