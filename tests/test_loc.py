"""Tests of ``tools/loc.py``, the code-line counter."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("loc", ROOT / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)
code_lines = loc.code_lines

SAMPLE = '''"""A module docstring
over two lines."""

# a comment line
import os  # a trailing comment counts as code


class A:
    """A class docstring."""

    def f(self, x):
        """A function docstring."""
        return (x +
                1)

    def g(self):
        s = """not a docstring:
        a string that is assigned"""
        return s
'''


def test_loc_counts_code_lines_only():
    # import, class, def f, the two lines of its return, def g, the two
    # lines of the assignment, return s
    assert code_lines(SAMPLE) == 9
    assert code_lines("") == 0


def test_loc_reads_every_module_of_the_package(tmp_path):
    # run from another directory: the package path does not depend on it
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "loc.py")], cwd=tmp_path,
                         capture_output=True, text=True, timeout=60, check=True)
    rows = [line.split() for line in out.stdout.splitlines()]
    package = ROOT / "src" / "monocat"
    assert [name for _, name in rows] == sorted(p.name for p in package.glob("*.py")) + ["total"]
    counts = [int(n) for n, _ in rows]
    assert all(n > 0 for n in counts) and counts[-1] == sum(counts[:-1])
