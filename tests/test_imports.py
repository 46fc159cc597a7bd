"""No module of ``src/monocat`` imports a name it never uses, and no
module-level private name goes unread.

An imported name counts as used when it occurs as a ``Name`` node, on its
own or as the base of an attribute (``itertools`` in ``itertools.product``).
``__init__.py`` is exempt: it imports names to re-export them.  A private
name (``_name``: a function, class or assigned constant at module level)
counts as read when some module of the package loads it, reads it as an
attribute, or imports it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "monocat"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names a module imports and never uses, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


SAMPLE = '''
import os.path
import re as regex
from itertools import chain, repeat
from typing import Sequence


def f(xs: Sequence) -> list:
    return list(chain(xs, os.path.sep))
'''


def test_guard_names_what_a_module_leaves_unused():
    assert unused_imports(SAMPLE) == ["regex", "repeat"]
    assert unused_imports("from __future__ import annotations\n") == []


def test_the_package_modules_are_all_read():
    assert len(MODULES) == len(list(PACKAGE.glob("*.py"))) - 1 > 0


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def private_names(source: str) -> list:
    """The private names a module defines at module level, in order:
    functions, classes and assigned constants, dunders aside."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def read_names(source: str) -> set:
    """Every name a module loads, reads as an attribute, or imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


PRIVATE_SAMPLE = '''
__all__ = ["f"]
_LIMIT = 3
_unread: int = 4


class _Helper:
    pass


def _called(x):
    return x < _LIMIT


def f(x):
    _local = 1
    return _called(x) and _Helper and _local
'''


def test_guard_names_an_unread_private_name():
    read = read_names(PRIVATE_SAMPLE) | read_names("from .m import _imported")
    assert private_names(PRIVATE_SAMPLE) == ["_LIMIT", "_unread", "_Helper", "_called"]
    assert [n for n in private_names(PRIVATE_SAMPLE) if n not in read] == ["_unread"]
    assert "_imported" in read and "attr" in read_names("x.attr")


def test_no_unread_private_name():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*map(read_names, sources.values()))
    assert [(name, n) for name, source in sources.items()
            for n in private_names(source) if n not in read] == []
