"""Every definition in ``src/monocat`` has a reader outside the tests, or a
stated reason to be there.

A definition is a module-level function or class of the package, or a
method of such a class.  The roots are what runs without being called by
name: every module-level statement that is not a definition (imports,
``SUITES["tau"] = suite_tau``), every module-level definition with a
decorator other than ``dataclass`` (such as the ``_suite`` laws, which the
decorator registers), all of ``cli.py``, every name that ``perfbench/*.py``
and ``tools/*.py`` read, and the parts of the dotted span names in
``perfbench/spans.py``, so that the spans keep what they wrap.

Reach is a fixed point: a definition is reached when a root or a reached
body reads its name, as a ``Name`` load, an attribute or an import, and a
reached class also reaches its dunder and decorated members.  The match is
by name alone, with no type inference: a method that shares its name with
a live one (two ``is_zero`` methods, say) counts as reached, so the guard
can miss dead code.

``UNREACHED_ON_PURPOSE`` names each definition kept without such a reader,
with its reason.  A kept definition keeps what its body reads.  An entry
that is reached from the roots, or no longer defined, fails the guard too.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "monocat"
READERS = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))
SPANS = ROOT / "perfbench" / "spans.py"
DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")

UNREACHED_ON_PURPOSE = {
    "stable.coker_functor": "the paper's functor into the stable category "
                            "of R; test_stable_gp checks it against null_homotopy",
    "stable.stable_class_is_zero": "the zero test of that stable category; "
                                   "test_stable_gp checks it against null_homotopy",
    "stable.intertwine_suspension_check": "the cokernel functor commutes with "
                                          "the shift; test_stable_gp checks it on suspend",
    "category.make_object": "library convenience: an object from rows of scalars",
    "homotopy.homotopic": "library convenience: equality in the homotopy "
                          "category, which the tests' reference is_iso calls",
}


def read_names(*nodes) -> set:
    """Every name the nodes load, read as an attribute, or import."""
    names = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                names.add(n.attr)
            elif isinstance(n, (ast.Import, ast.ImportFrom)):
                names.update(part for a in n.names for part in a.name.split("."))
    return names


def _registers(node) -> bool:
    """Whether a decorator other than ``dataclass`` wraps the definition."""
    return any(read_names(d) != {"dataclass"} for d in node.decorator_list)


def scan(source: str, module: str, whole: bool = False) -> tuple:
    """``(definitions, roots)`` of one module.  ``definitions`` maps each
    qualified name to ``(name, nodes its body reads, class or None, rides
    with its class)``; ``roots`` holds the names read at module level and
    the qualified names of definitions that are roots themselves (every
    one when ``whole``)."""
    defs, roots = {}, set()
    for node in ast.parse(source).body:
        if not isinstance(node, DEFINITION):
            roots |= read_names(node)
            continue
        qual = f"{module}.{node.name}"
        body = [node]
        if isinstance(node, ast.ClassDef):
            body = node.decorator_list + node.bases + node.keywords
            for member in node.body:
                if isinstance(member, DEFINITION):
                    rides = member.name.startswith("__") or bool(member.decorator_list)
                    defs[f"{qual}.{member.name}"] = (member.name, [member], qual, rides)
                else:
                    body.append(member)
        defs[qual] = (node.name, body, None, False)
        if _registers(node):
            roots.add(qual)
    if whole:
        roots |= set(defs)
    return defs, roots


def reach(defs: dict, roots: set) -> set:
    """The qualified names reached from ``roots`` (names read, and
    qualified names reached outright)."""
    reached = {q for q in defs if q in roots}
    names = set(roots).union(*(read_names(*defs[q][1]) for q in reached))
    grew = True
    while grew:
        grew = False
        for q, (name, body, cls, rides) in defs.items():
            if q not in reached and (name in names or (rides and cls in reached)):
                reached.add(q)
                names |= read_names(*body)
                grew = True
    return reached


def verdict(defs: dict, roots: set, kept: dict) -> tuple:
    """``(unreached, stale)``: definitions neither reached nor kept, and
    kept entries that are reached without being kept or not defined."""
    bare = reach(defs, roots)
    stale = sorted(q for q in kept if q not in defs or q in bare)
    reached = reach(defs, roots | set(kept))
    return sorted(q for q in defs if q not in reached and q not in kept), stale


def package_scan() -> tuple:
    defs, roots = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        more, more_roots = scan(path.read_text(), path.stem, whole=path.name == "cli.py")
        defs.update(more)
        roots |= more_roots
    for path in READERS:
        roots |= read_names(ast.parse(path.read_text()))
    for node in ast.walk(ast.parse(SPANS.read_text())):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and DOTTED.fullmatch(node.value):
            roots.update(node.value.split("."))
    return defs, roots


SAMPLE = '''
from dataclasses import dataclass

REGISTRY = {}


def register(f):
    REGISTRY[f.__name__] = f
    return f


@register
def law():
    return helper()


def helper():
    return Box(1).value()


@dataclass
class Box:
    x: int

    def __post_init__(self):
        pass

    def value(self):
        return self.x

    def unread(self):
        return 0


@dataclass(frozen=True)
class Unused:
    pass


def orphan():
    return Unused()


def kept():
    return orphan()
'''


def test_guard_names_what_nothing_reaches():
    defs, roots = scan(SAMPLE, "m")
    assert roots >= {"dataclass", "m.law"} and "m.helper" not in roots
    assert verdict(defs, roots, {}) == (
        ["m.Box.unread", "m.Unused", "m.kept", "m.orphan"], [])
    # a kept definition keeps what it reads
    assert verdict(defs, roots, {"m.kept": "why"}) == (["m.Box.unread"], [])
    # an entry that is reached, or no longer defined, is stale
    assert verdict(defs, roots, {"m.helper": "", "m.gone": ""})[1] == ["m.gone", "m.helper"]
    # every definition of a whole module is a root
    assert verdict(*scan(SAMPLE, "m", whole=True), {}) == ([], [])


def test_every_definition_is_reached_or_kept_on_purpose():
    defs, roots = package_scan()
    assert len(defs) > 100 and len(UNREACHED_ON_PURPOSE) <= 5
    assert all(UNREACHED_ON_PURPOSE.values())
    assert verdict(defs, roots, UNREACHED_ON_PURPOSE) == ([], [])
