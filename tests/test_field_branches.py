"""Poly arithmetic branches on the coefficient field only where the
algorithm differs.

A function branches on the field when it compares a ``q`` (a name ``q``
or an attribute ``.q``) with None.  The guard reads the functions at
module level of ``rings.py`` and the methods of ``Poly`` and ``PolyFrac``;
ring-level code (``RingCtx`` and its subclasses) may branch as it needs.
"""

import ast
from pathlib import Path

RINGS = Path(__file__).resolve().parents[1] / "src" / "monocat" / "rings.py"
SCOPES = ("Poly", "PolyFrac")
# reduction mod q, the coefficient view, the packed product, the gcd and
# the exact quotient: the five places the algorithm differs by field
ALLOWED = {"_canon", "_coeff", "__mul__", "gcd", "_cancel"}


def _is_q(node) -> bool:
    return ((isinstance(node, ast.Name) and node.id == "q")
            or (isinstance(node, ast.Attribute) and node.attr == "q"))


def _is_none(node) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def compares_q_with_none(fn) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if any(map(_is_q, sides)) and any(map(_is_none, sides)):
                return True
    return False


def field_branches(source: str) -> list:
    """The functions at module level and in the classes of SCOPES that
    compare a q with None, in source order."""
    functions = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            functions.append(node)
        elif isinstance(node, ast.ClassDef) and node.name in SCOPES:
            functions += [f for f in node.body if isinstance(f, ast.FunctionDef)]
    return [f.name for f in functions if compares_q_with_none(f)]


SAMPLE = '''
def reduce(cs, q):
    return cs if q is None else [c % q for c in cs]


def plain(cs):
    return list(cs)


class Poly:
    def view(self):
        if None is not self.q:
            return self.ints

    def size(self):
        return self.quota is None


class RingCtx:
    def residue_modulus(self):
        return None if self.q is None else self.q ** self.t
'''


def test_guard_names_what_a_sample_branches_in():
    assert field_branches(SAMPLE) == ["reduce", "view"]


def test_poly_arithmetic_branches_on_the_field_in_five_places():
    assert set(field_branches(RINGS.read_text())) == ALLOWED
