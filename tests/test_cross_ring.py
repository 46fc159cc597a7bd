"""The same exponents give the same ``mon`` answers over every ring.

An object U·diag(π^s)·V, with U and V unimodular, is isomorphic to
diag(π^s), so every answer that depends only on t and the Smith exponents s
must not depend on the ring.  Built with the same exponents over Z_(p),
F_p[x]_(x) and Q[x]_(x), the objects are written to files and run through
in-process ``mon``; each command must give the same stdout and exit code on
every ring.  ``ar-verify`` enumerates R = S/(π^t), so it is compared
between the two rings with residue field F_p only.  Objects that ``mon``
emits (``sigma``, ``suspend``, ``tau`` of a rank-one nonprojective object,
``cone`` of identity and zero morphisms) are compared through the
``decompose`` of what they print.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from monocat.category import MonObject, identity_morphism, zero_morphism
from monocat.cli import dumps_morphism, dumps_object, main
from monocat.linalg import diag_pi, random_unimodular
from monocat.rings import RingCtx

OBJECT_COMMANDS = ["decompose", "coker", "is-projective", "tau-gp"]


def mon(*argv) -> tuple:
    """The exit code and stdout of one in-process ``mon`` command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(a) for a in argv])
    return code, out.getvalue()


def build_objects(ctx: RingCtx, exps_a: list, exps_b: list, seeds: tuple) -> dict:
    """Objects a and b, U·diag(π^s)·V with U and V drawn from the seeds."""
    objs = {}
    for name, exps, (s1, s2) in (("a", exps_a, seeds), ("b", exps_b, seeds[::-1])):
        n = len(exps)
        objs[name] = MonObject(ctx, random_unimodular(n, s1, ctx) @ diag_pi(ctx, exps)
                               @ random_unimodular(n, s2, ctx))
    return objs


def answers(ctx: RingCtx, exps_a: list, exps_b: list, seeds: tuple,
            finite: bool) -> list:
    """Every compared (command, exit code, stdout) for objects a and b."""
    objs = build_objects(ctx, exps_a, exps_b, seeds)
    commands = OBJECT_COMMANDS + (["ar-verify"] if finite else [])
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        path = {name: Path(tmp) / f"{name}.json" for name in objs}
        for name, obj in objs.items():
            path[name].write_text(dumps_object(obj))
        for name in objs:
            for command in commands:
                out.append((command, name, *mon(command, path[name])))
            for command in ("sigma", "suspend"):
                code, text = mon(command, path[name])
                assert code == 0, (command, text)
                image = Path(tmp) / f"{command}-{name}.json"
                image.write_text(text)
                out.append((command, name, *mon("decompose", image)))
        for src, dst in (("a", "b"), ("b", "a"), ("a", "a")):
            out.append(("stable-hom", src + dst, *mon("stable-hom", path[src], path[dst])))
    return out


def exponent_pairs(t: int):
    """t with the exponents of two objects of size at most 3."""
    exps = st.lists(st.integers(0, t), min_size=1, max_size=3)
    return st.tuples(st.just(t), exps, exps)


@settings(max_examples=30, deadline=None)
@given(p=st.sampled_from([2, 3]), case=st.integers(1, 3).flatmap(exponent_pairs),
       seeds=st.tuples(st.integers(0, 2**16), st.integers(0, 2**16)))
def test_mon_answers_agree_across_rings(p, case, seeds):
    t, exps_a, exps_b = case
    int_local = answers(RingCtx.int_local(p, t), exps_a, exps_b, seeds, True)
    poly_fp = answers(RingCtx.poly_local(t, p), exps_a, exps_b, seeds, True)
    assert poly_fp == int_local
    poly_q = answers(RingCtx.poly_local(t), exps_a, exps_b, seeds, False)
    assert poly_q == [a for a in int_local if a[0] != "ar-verify"]


def emitted_answers(ctx: RingCtx, exps_a: list, exps_b: list, seeds: tuple) -> list:
    """``decompose`` of the ``tau`` output for a (rank one) and of the
    ``cone`` output for the identities of a and b and the zero morphisms
    between them."""
    objs = build_objects(ctx, exps_a, exps_b, seeds)
    a, b = objs["a"], objs["b"]
    files = {"a": dumps_object(a),
             "id-a": dumps_morphism(identity_morphism(a)),
             "id-b": dumps_morphism(identity_morphism(b)),
             "zero-ab": dumps_morphism(zero_morphism(a, b)),
             "zero-ba": dumps_morphism(zero_morphism(b, a))}
    runs = [("a", ["tau"]), ("a", ["tau", "--dim", "1"])]
    runs += [(name, ["cone"]) for name in files if name != "a"]
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        path = {name: Path(tmp) / f"{name}.json" for name in files}
        for name, text in files.items():
            path[name].write_text(text)
        for name, argv in runs:
            code, text = mon(*argv, path[name])
            assert code == 0, (argv, name, text)
            image = Path(tmp) / "image.json"
            image.write_text(text)
            out.append((" ".join(argv), name, *mon("decompose", image)))
    return out


def rank_one_cases(t: int):
    """t, a nonprojective exponent of a rank-one object, and the exponents
    of a second object of size at most 2."""
    return st.tuples(st.just(t), st.integers(1, t - 1),
                     st.lists(st.integers(0, t), min_size=1, max_size=2))


@settings(max_examples=15, deadline=None)
@given(p=st.sampled_from([2, 3]), case=st.integers(2, 3).flatmap(rank_one_cases),
       seeds=st.tuples(st.integers(0, 2**16), st.integers(0, 2**16)))
def test_emitted_objects_agree_across_rings(p, case, seeds):
    t, s, exps_b = case
    int_local = emitted_answers(RingCtx.int_local(p, t), [s], exps_b, seeds)
    assert emitted_answers(RingCtx.poly_local(t, p), [s], exps_b, seeds) == int_local
    assert emitted_answers(RingCtx.poly_local(t), [s], exps_b, seeds) == int_local
