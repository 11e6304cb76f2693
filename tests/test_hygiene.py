"""Source hygiene: ppmod modules share only public names, and import only what they use.

A name with a leading underscore is private to the module that defines
it; a module that needs it from another module should get a public
name instead.  A name a module imports and never uses is a stale
dependency left behind by a refactor.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ppmod"


def private_imports(path: Path) -> list[str]:
    """``module:name`` for each private name imported from a ppmod module."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "ppmod"
        if not internal:
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                out.append(f"{node.module or '.'}:{alias.name}")
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_cross_modules(path):
    assert private_imports(path) == []


def test_the_check_sees_private_imports(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("from .modules import ModuleRep, _field_kron\nfrom os import _exit\n")
    assert private_imports(sample) == ["modules:_field_kron"]


def unused_imports(path: Path) -> list[str]:
    """Each name a module binds by import and never mentions again, in order."""
    tree = ast.parse(path.read_text())
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_every_imported_name_is_used(path):
    # the package __init__ imports to re-export; its list is checked against __all__
    assert unused_imports(path) == []


def test_the_check_sees_unused_imports(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from __future__ import annotations\nimport os.path\nimport numpy as np\n"
        "from .modules import ModuleRep, hom_space\n\n"
        "def f(m: ModuleRep) -> np.ndarray:\n    return hom_space(m, m)\n"
    )
    assert unused_imports(sample) == ["os"]


def tracer_entry_points() -> dict:
    """The ``ENTRY_POINTS`` literal of the benchmark's tracer, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "ENTRY_POINTS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no ENTRY_POINTS")


def test_traced_entry_points_resolve():
    # the traced benchmark run wraps these names; a rename must show up here
    entries = tracer_entry_points()
    assert entries
    for module, names in entries.items():
        for name in names:
            obj = importlib.import_module(f"ppmod.{module}")
            for part in name.split("."):
                assert hasattr(obj, part), f"ppmod.{module}.{name}"
                obj = getattr(obj, part)
            assert callable(obj), f"ppmod.{module}.{name}"


def package_imports() -> list[str]:
    """Every name ``src/ppmod/__init__.py`` imports from its modules, in order."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def test_all_is_exactly_the_package_imports():
    # a name deleted from a module must leave both lists together
    import ppmod

    assert len(ppmod.__all__) == len(set(ppmod.__all__))
    assert set(ppmod.__all__) == set(package_imports())
    for name in ppmod.__all__:
        assert hasattr(ppmod, name), name


LIST_TABLES = {"add_list", "mul_list", "neg_list", "inv_list"}


def list_table_reads(path: Path) -> list[str]:
    """The name of each field list table a module reads, once per read."""
    tree = ast.parse(path.read_text())
    return [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in LIST_TABLES
    ]


def test_only_the_kernel_reads_the_list_tables():
    # row elimination lives in linalg alone; a loop over the list tables
    # anywhere else is a second elimination
    readers = {path.name for path in SRC.glob("*.py") if list_table_reads(path)}
    assert readers <= {"fields.py", "linalg.py"}
    assert "linalg.py" in readers


def test_the_check_sees_list_table_reads(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("def f(field, v):\n    return [field.neg_list[x] for x in v], field.add_table\n")
    assert list_table_reads(sample) == ["neg_list"]


def walk_internals(path: Path) -> list[str]:
    """Each read of ``WALK_CELLS`` and each import or use of ``fields.digits``
    in a module, in the order ``ast.walk`` meets them."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and node.id == "WALK_CELLS" and isinstance(node.ctx, ast.Load):
            out.append("WALK_CELLS")
        elif isinstance(node, ast.Attribute) and node.attr == "WALK_CELLS":
            out.append("WALK_CELLS")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "fields":
            out += ["digits" for alias in node.names if alias.name == "digits"]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "digits"
            and isinstance(node.value, ast.Name)
            and node.value.id == "fields"
        ):
            out.append("digits")
    return out


def test_one_walk_of_the_code_order():
    # linalg.walk is the one chunked walk of F_q^n: a chunk loop written
    # anywhere else reads the cell budget or decodes codes by itself
    readers = {path.name for path in SRC.glob("*.py") if "WALK_CELLS" in walk_internals(path)}
    decoders = {path.name for path in SRC.glob("*.py") if "digits" in walk_internals(path)}
    assert readers == {"linalg.py"}
    assert decoders == {"linalg.py"}


def test_the_check_sees_walk_internals(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from . import fields, linalg\nfrom .fields import ELEM, digits\nWALK_CELLS = 4\n\n"
        "def f(field, n):\n    step = linalg.WALK_CELLS // n\n"
        "    return fields.digits(range(step), field.q, n), digits, fields.ELEM\n"
    )
    assert sorted(walk_internals(sample)) == ["WALK_CELLS", "digits", "digits"]


CACHE_DECORATORS = {"lru_cache", "cache", "cached_property"}


def characteristic_2_tests(path: Path) -> list[str]:
    """Each comparison of a field's ``p`` or ``q`` with 2 in a module, as written."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        reads = any(isinstance(x, ast.Attribute) and x.attr in {"p", "q"} for x in operands)
        if reads and any(isinstance(x, ast.Constant) and x.value == 2 for x in operands):
            out.append(ast.unparse(node))
    return out


def test_only_the_kernel_branches_on_characteristic_2():
    # the XOR/AND arithmetic lives in fields and linalg alone; a test of
    # p or q against 2 anywhere else is a second kernel growing
    testers = {path.name for path in SRC.glob("*.py") if characteristic_2_tests(path)}
    assert testers == {"fields.py", "linalg.py"}


def test_the_check_sees_characteristic_2_tests(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "def f(field, m, p):\n"
        "    if field.q == 2 or 2 != m.algebra.field.p or field.p < 2:\n"
        "        return field.d == 2, m.dim == 2, p == 2, field.q == 3\n"
    )
    assert characteristic_2_tests(sample) == [
        "field.q == 2",
        "2 != m.algebra.field.p",
        "field.p < 2",
    ]


def functools_caches(path: Path) -> list[str]:
    """Each ``functools`` cache a module imports or names, in order."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            out += [alias.name for alias in node.names if alias.name in CACHE_DECORATORS]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
            and node.attr in CACHE_DECORATORS
        ):
            out.append(node.attr)
    return out


def test_memo_is_the_one_cache():
    users = {path.name for path in SRC.glob("*.py") if functools_caches(path)}
    assert users <= {"memo.py"}


def test_the_check_sees_functools_caches(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import functools\nfrom functools import lru_cache, wraps\n\n"
        "@functools.cache\ndef f():\n    return 1\n\n@lru_cache(maxsize=None)\ndef g():\n    return 2\n"
    )
    assert functools_caches(sample) == ["lru_cache", "cache"]


def callers_of(path: Path, name: str) -> list[str]:
    """``module.function`` of each function in which a call to ``name`` appears, once each."""
    out = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{path.stem}.{child.name}" if where is None else where)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if called == name and (where or path.stem) not in out:
                    out.append(where or path.stem)
            visit(child, where)

    visit(ast.parse(path.read_text()), None)
    return out


def test_one_hom_null_space():
    # the Sylvester rows are the Hom constraints and the tensor relations;
    # every Hom question reads the null space, not a second system of its own
    callers = [c for path in sorted(SRC.glob("*.py")) for c in callers_of(path, "sylvester_rows")]
    assert sorted(callers) == ["linalg.intertwiners", "tensor.tensor_product"]


def test_one_module_law_check():
    # make_module checks the law on caller-given actions; the constructions
    # built from checked modules make the record directly, and the workspace
    # passes make_module by reference, so it makes no call here
    callers = [c for path in sorted(SRC.glob("*.py")) for c in callers_of(path, "make_module")]
    assert sorted(callers) == [
        "fixtures.mod_ls",
        "fixtures.mod_rr_alt",
        "fixtures.mod_s",
        "fixtures.tri2_p1",
        "fixtures.tri2_s1",
        "fixtures.tri2_s2",
        "modules.regular_module",
        "modules.zero_module",
    ]


def test_the_check_sees_sylvester_callers(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from . import linalg\n\n"
        "def f(x):\n    def g():\n        return linalg.sylvester_rows(x, x, x)\n"
        "    return g(), sylvester_rows(x, x, x)\n\n"
        "def sylvester_rows(a, b, c):\n    return linalg.kron(a, b)\n"
    )
    assert callers_of(sample, "sylvester_rows") == ["sample.f"]


CALLER_DIRS = (SRC, ROOT / "perfbench", ROOT / "scripts")
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def definitions(path: Path) -> list[tuple[str, ast.AST]]:
    """(qualified name, node) of each function and method a module defines, dunders aside."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if not isinstance(child, ast.ClassDef) and not child.name.startswith("__"):
                    out.append((name, child))
                visit(child, f"{name}.")

    visit(ast.parse(path.read_text()), "")
    return out


def references(tree: ast.AST) -> list[str]:
    """Each name, attribute and whole dotted-name string part a syntax tree mentions."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append(node.id)
        elif isinstance(node, ast.Attribute):
            out.append(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED.fullmatch(node.value):
                out += node.value.split(".")
    return out


def readme_names(text: str) -> set[str]:
    """Each inline code span of the README that is one dotted name, ``()`` aside.

    Only ``Class.method`` or ``module.function`` spans name a definition:
    fenced blocks are dropped, and a bare word or a shell line names nothing.
    """
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    spans = (span.removesuffix("()") for span in re.findall(r"`([^`\n]+)`", text))
    return {span for span in spans if "." in span and DOTTED.fullmatch(span)}


def unreferenced(paths: list[Path], callers: list[Path], exported: set[str], named: set[str]) -> list[str]:
    """``module:qualname`` of each definition in ``paths`` that nothing reaches.

    A definition is reached when a file in ``callers`` mentions its name
    outside the definition's own body, when it is exported, or when
    ``named`` holds its ``qualname`` or ``module.qualname``. The callers
    are matched by bare name, not resolved: a dead method that shares its
    name with any other mentioned attribute (``apply``, ``dim``) passes,
    so the check finds dead code with unique names and can miss the rest.
    """
    counts = Counter(word for path in callers for word in references(ast.parse(path.read_text())))
    out = []
    for path in paths:
        for qualname, node in definitions(path):
            name = node.name
            inside = sum(word == name for part in node.body for word in references(part))
            if counts[name] > inside or name in exported:
                continue
            if {qualname, f"{path.stem}.{qualname}"} & named:
                continue
            out.append(f"{path.stem}:{qualname}")
    return out


def test_every_definition_has_a_caller():
    # a helper reached only from the tests is dead code kept alive by its test
    import ppmod

    callers = sorted(p for d in CALLER_DIRS for p in d.rglob("*.py"))
    named = readme_names((ROOT / "README.md").read_text())
    assert unreferenced(sorted(SRC.glob("*.py")), callers, set(ppmod.__all__), named) == []


def test_the_check_sees_unreferenced_definitions(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "class A:\n    def used(self):\n        return 1\n\n"
        "    def dead_method(self):\n        return self.dead_method()\n\n"
        "    def __repr__(self):\n        return 'A'\n\n"
        "def loop(n):\n    return loop(n - 1) if n else 0\n\n"
        "def exported():\n    return A().used()\n\n"
        "def in_readme():\n    return 1\n\n"
        "def in_a_shell_block():\n    return 1\n\n"
        "def as_a_bare_word():\n    return 1\n\n"
        "def traced():\n    return 2\n\nENTRY = ('A.traced',)\n"
    )
    readme = (
        "```sh\nsample.in_a_shell_block\n```\n"
        "call `sample.in_readme()`, `as_a_bare_word` or `A.dead_method(x)`\n"
    )
    assert readme_names(readme) == {"sample.in_readme"}
    got = unreferenced([sample], [sample], {"exported"}, readme_names(readme))
    assert got == ["sample:A.dead_method", "sample:loop", "sample:in_a_shell_block", "sample:as_a_bare_word"]


def dataclass_imports(path: Path) -> list[str]:
    """Each import statement of ``dataclasses`` in a module, as ``line:module``."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out += [f"{node.lineno}:{a.name}" for a in node.names if a.name == "dataclasses"]
        elif isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            out.append(f"{node.lineno}:dataclasses")
    return out


def test_no_module_imports_dataclasses():
    # records.record replaces @dataclass: its code generation was most of the import time
    importers = {path.name for path in SRC.glob("*.py") if dataclass_imports(path)}
    assert importers == set()


def test_the_check_sees_dataclass_imports(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        '"""Not a dataclass."""\nimport os, dataclasses\n\n'
        "def f():\n    from dataclasses import dataclass, replace\n    return dataclass, replace\n"
    )
    assert dataclass_imports(sample) == ["2:dataclasses", "5:dataclasses"]


def test_the_cli_import_loads_no_dataclasses():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = "import sys, numpy, ppmod.cli; print(sorted(m for m in sys.modules if 'dataclasses' in m))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
