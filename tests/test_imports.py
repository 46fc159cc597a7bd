"""No module of ``src/monocat`` imports a name it never uses.

A name counts as used when it occurs as a ``Name`` node, on its own or as
the base of an attribute (``itertools`` in ``itertools.product``).
``__init__.py`` is exempt: it imports names to re-export them.
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
