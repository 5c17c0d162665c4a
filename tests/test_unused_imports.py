"""Every name a library or test module imports is used by that module,
every private module-level name of the library is used, and no library
module reads another one's private name.

The package's ``__init__`` imports names to export them, so it is left out.
A name counts as used when the module reads it anywhere, including in an
annotation (a quoted one is parsed too).  A private name (``_name``, not
``__dunder__``) defined at the top of a library module by a ``def``,
``class`` or assignment counts as used when some other top-level statement
of the library reads it, as a name or as an attribute; a read inside its
own definition (a recursive call) does not count.  A private name is read
only by its own module: another library module neither imports it nor
reads it as an attribute of the module (``harness._value``).  Only the
standard library is used.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "afafed"
MODULES = (sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
           + sorted(TESTS.glob("*.py")))


def imported_names(tree: ast.Module) -> dict:
    """Each name an import statement binds, with the line it is bound on."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def read_names(tree: ast.Module) -> set:
    """Every name the module reads, quoted annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for note in annotations:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                names |= read_names(ast.parse(note.value, mode="eval"))
    return names


def private_definitions(tree: ast.Module) -> dict:
    """Each private name a top-level statement defines, with that statement."""
    defined = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [node.id for target in targets for node in ast.walk(target)
                     if isinstance(node, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = stmt
    return defined


def dead_private_names(trees: dict) -> list:
    """``module:line: name`` of each private top-level name no other statement reads."""
    reads = [(stmt, read_names(stmt) | {node.attr for node in ast.walk(stmt)
                                        if isinstance(node, ast.Attribute)})
             for tree in trees.values() for stmt in tree.body]
    dead = []
    for module, tree in trees.items():
        for name, definition in private_definitions(tree).items():
            if not any(name in names for stmt, names in reads if stmt is not definition):
                dead.append(f"{module}:{definition.lineno}: {name}")
    return dead


def foreign_private_reads(trees: dict) -> list:
    """``module:line: name`` of each private name one library module takes
    from another, by import or as an attribute of the imported module."""
    modules = {Path(name).stem for name in trees}
    found = []
    for module, tree in trees.items():
        imported = set(imported_names(tree)) & modules
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom)
                    and (node.module or "").split(".")[-1] in modules):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in imported:
                names = [node.attr]
            else:
                continue
            found += [f"{module}:{node.lineno}: {name}" for name in names
                      if name.startswith("_") and not name.startswith("__")]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = read_names(tree)
    unused = [f"{path.name}:{line}: {name}"
              for name, line in imported_names(tree).items() if name not in used]
    assert unused == []


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("import os\nimport numpy as np\nfrom typing import List, Sequence\n"
                     "def f(x: 'List[int]') -> None:\n    return np.sum(x)\n")
    bound = imported_names(tree)
    assert sorted(name for name in bound if name not in read_names(tree)) == ["Sequence", "os"]


def test_every_private_name_of_the_library_is_used():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert dead_private_names(trees) == []


def test_the_scan_sees_a_dead_private_name():
    lib = ast.parse("import math\n_USED, _UNREAD = 1, 2\n__dunder__ = 3\n"
                    "def _recursive(n):\n    return _recursive(n - 1) if n else _USED\n"
                    "class _Unused:\n    pass\n"
                    "def public(x: '_Annotated') -> None:\n    return math._private_attr\n")
    other = ast.parse("class _Annotated:\n    pass\n_private_attr = 0\n")
    assert dead_private_names({"lib.py": lib, "other.py": other}) == [
        "lib.py:2: _UNREAD", "lib.py:4: _recursive", "lib.py:6: _Unused"]


def test_no_library_module_reads_another_ones_private_name():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert foreign_private_reads(trees) == []


def test_the_scan_sees_a_foreign_private_read():
    lib = ast.parse("from . import harness\nfrom .errors import _hidden, Public\n"
                    "import numpy as np\n"
                    "def f(x):\n    return harness._value(x) + harness.value + np._private\n")
    assert foreign_private_reads({"lib.py": lib, "harness.py": ast.parse(""),
                                  "errors.py": ast.parse("")}) == [
        "lib.py:2: _hidden", "lib.py:5: _value"]
