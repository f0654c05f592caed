"""Source hygiene: no module imports a name it never uses, no name of
``src/`` is dead, nothing reads an instance's constants through
``.params``, no family but custom_smooth states a second gradient, no code
in ``src/`` branches on a family's name, and no config field is read
outside its object's table.

AST scans.  Of every module in ``src/`` and ``tests/``: each name an import
binds must be read somewhere in its module.  A package's ``__init__.py``
imports to re-export, so it is not scanned.  Of ``src/`` as a whole: each
module-level function, class or constant, and each method, property or
attribute of a class, must be read in ``src/`` or in ``perfbench/*.py`` (as
a name, as an attribute or, in ``perfbench``, as a string naming it), or be
exported by ``batchstab/__init__.py``, whose exports README's API section
lists; a name only tests read belongs to the tests.  Of ``src/`` and
``tests/``: no code reads ``.params``, which only ``perfbench`` still
does.  Of ``src/``: no class but the base class and custom_smooth defines
``grad``, so a family's gradient is its batch split.  A loss family's facts
are read from its class, never by testing its name, except in the one
registry lookup of ``problems``; and ``config_field`` is called only by
``read_config``, which refuses every field its table does not name, except
to read the field that picks a table.
"""

import ast
import re
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


def defined_names(source: str) -> list[tuple[int, str]]:
    """(line, name) of every module-level function, class or constant, and
    of every method, property or attribute a class defines, named
    ``Class.name``.  Dunder names, which the language reads, are left out."""

    def names(node):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            return [node.name]
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        return []

    found = []
    for node in ast.parse(source).body:
        found += [(node.lineno, name) for name in names(node)]
        if isinstance(node, ast.ClassDef):
            found += [
                (member.lineno, f"{node.name}.{name}")
                for member in node.body for name in names(member)
            ]
    return [(line, name) for line, name in found
            if not re.fullmatch(r"__\w+__", name.rpartition(".")[2])]


def read_names(source: str, strings: bool = False) -> set[str]:
    """Every name the source reads, bare or as an attribute, and with
    ``strings`` every string constant that is an identifier: a name looked
    up in a table of names."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            read.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                read.add(node.value)
    return read


def exported_names(source: str) -> list[str]:
    """The names a package's ``__init__`` imports, to export them."""
    return [
        alias.asname or alias.name
        for node in ast.parse(source).body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def dead_names(sources: dict, perfbench: list[str], init: str) -> list[str]:
    """``path:line: name`` of every name ``defined_names`` finds in the
    sources (path -> text) that none of them reads, nor a ``perfbench``
    source, and that ``init`` does not export."""
    read = set().union(
        *(read_names(text) for text in sources.values()),
        *(read_names(text, strings=True) for text in perfbench),
        exported_names(init),
    )
    return [
        f"{path}:{line}: {name}"
        for path, text in sources.items()
        for line, name in defined_names(text)
        if name.rpartition(".")[2] not in read
    ]


def test_the_scan_finds_a_dead_name_and_passes_a_read_one():
    source = (
        "import m\n"
        "def _used(): pass\n"
        "def _dead(): pass\n"
        "def dead(): pass\n"
        "def exported(): pass\n"
        "_CONST, __dunder__ = 1, 2\n"
        "class Kind:\n"
        "    size: int\n"
        "    def __bool__(self): return True\n"
        "    def method(self): pass\n"
        "    @property\n"
        "    def prop(self): return self.size\n"
        "    def timed(self): pass\n"
        "    def unread(self): pass\n"
        "_table: dict = {}\n"
        "print(_used(), m._table, Kind().method(), 'prop')\n"
    )
    perfbench = "METHODS = (('mod', 'Kind', 'timed'),)\n"
    init = "from mod import exported\n"
    assert dead_names({"mod.py": source}, [perfbench], init) == [
        "mod.py:3: _dead", "mod.py:4: dead", "mod.py:6: _CONST", "mod.py:12: Kind.prop",
        "mod.py:14: Kind.unread",
    ]


def test_every_name_in_src_is_read_in_src_or_perfbench_or_exported():
    # A name only tests read is test code: it lives in the tests.
    sources = {
        path.relative_to(ROOT): path.read_text()
        for path in sorted((ROOT / "src").rglob("*.py"))
    }
    perfbench = [path.read_text() for path in sorted((ROOT / "perfbench").glob("*.py"))]
    init = (ROOT / "src" / "batchstab" / "__init__.py").read_text()
    assert dead_names(sources, perfbench, init) == []


def test_every_exported_name_is_listed_in_the_readme_api_section():
    readme = (ROOT / "README.md").read_text()
    api = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"`(\w+)`", api))
    init = (ROOT / "src" / "batchstab" / "__init__.py").read_text()
    assert [name for name in exported_names(init) if name not in listed] == []


# The classes that state a per-example gradient: the base class derives it
# from the batch split, and custom_smooth builds its split from it.
GRAD_OWNERS = ("ProblemInstance", "CustomSmoothInstance")


def grad_overrides(source: str) -> list[str]:
    """``Class.grad`` of every class outside GRAD_OWNERS that defines a
    ``grad``."""
    return [
        name for _, name in defined_names(source)
        if name.endswith(".grad") and name.partition(".")[0] not in GRAD_OWNERS
    ]


def test_the_scan_finds_a_grad_override():
    source = (
        "class ProblemInstance:\n"
        "    def grad(self, w, z): return self.batch_grad_mean(w, z)\n"
        "class CustomSmoothInstance(ProblemInstance):\n"
        "    def grad(self, w, z): return self.grad_fn(w, z)\n"
        "class LinearInstance(ProblemInstance):\n"
        "    def grad(self, w, z): return z\n"
        "    def step_terms(self, Z): return None\n"
        "class Quadratic(ProblemInstance):\n"
        "    grad = ProblemInstance.step_map\n"
    )
    assert grad_overrides(source) == ["LinearInstance.grad", "Quadratic.grad"]


def test_only_the_base_class_and_custom_smooth_define_grad():
    # Every built-in family's gradient is its batch split on one example,
    # so the regularity check certifies the split the engine runs.
    found = [
        f"{path.relative_to(ROOT)}: {name}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for name in grad_overrides(path.read_text())
    ]
    assert found == []


def params_reads(source: str) -> list[int]:
    """The line of every read of an attribute named ``params``."""
    return [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "params"
        and not isinstance(node.ctx, ast.Store)
    ]


def test_the_scan_finds_each_params_read():
    source = (
        "class P:\n"
        "    @property\n"
        "    def params(self): return self\n"
        "def f(inst, params):\n"
        "    p = inst.params\n"
        "    return params, inst.params.beta, P().params\n"
    )
    assert params_reads(source) == [5, 6, 6]


def test_nothing_in_src_or_tests_reads_params():
    # An instance holds its constants as attributes; ``params``, the
    # instance itself, is kept for perfbench alone.
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for top in ("src", "tests")
        for path in sorted((ROOT / top).rglob("*.py"))
        for line in params_reads(path.read_text())
    ]
    assert found == []


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
