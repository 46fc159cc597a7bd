"""Hom generators built from the lines of Smith transforms.

``SnfResult.columns`` and ``rows`` cut the transforms of a Smith form into
lines.  ``almost_split._hom_generators`` builds the generator at cell
(j, i) as a pi-scaled product of two such lines, and ``_test_generators``
reads the generators of Hom(pi^s', Y) and Hom(Y, pi^s') off Y's lines
alone.  Both must equal ``morphism_from_params`` at the unit vectors, over
Z_(p), F_q[x]_(x) and Q[x]_(x), on objects of rank up to 3: random ones,
diagonal ones (whose Smith record may be empty) and direct sums.  The
verifier must build no Smith form of its test objects and no morphism
from parameters.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from monocat import almost_split
from monocat.almost_split import (ArSequence, _hom_generators, _test_generators,
                                  ar_sequence, verify_right_almost_split)
from monocat.category import MonMorphism, MonObject, direct_sum, rank_one
from monocat.linalg import MatS, diag_pi, snf
from monocat.rings import RingCtx
from monocat.sampling import morphism_from_params, random_object

RINGS = [RingCtx.int_local(2, 3), RingCtx.int_local(3, 2),
         RingCtx.poly_local(3, q=2), RingCtx.poly_local(2, q=3),
         RingCtx.poly_local(2)]
IDS = ["Z2", "Z3", "F2", "F3", "Q"]


def unit_generators(src: MonObject, dst: MonObject) -> list:
    """``morphism_from_params`` at each unit vector, in cell order."""
    ctx, cells = src.ctx, src.n * dst.n
    return [morphism_from_params(src, dst, [ctx.one() if i == k else ctx.zero()
                                            for i in range(cells)])
            for k in range(cells)]


@st.composite
def objects(draw, ctx: RingCtx, max_size: int = 3) -> MonObject:
    """A random object, a diagonal one (exponents sorted, so its Smith
    record is empty, or not) or a direct sum of two, of rank <= max_size."""
    kind = draw(st.sampled_from(["random", "diagonal", "sum"][:2 + (max_size > 1)]))
    if kind == "random":
        rng = random.Random(draw(st.integers(0, 2 ** 16)))
        return random_object(ctx, rng, max_size)
    if kind == "diagonal":
        exps = draw(st.lists(st.integers(0, ctx.t), min_size=1, max_size=max_size))
        return MonObject(ctx, diag_pi(ctx, exps))
    a = draw(objects(ctx, max_size - 1))
    return direct_sum(a, draw(objects(ctx, max_size - a.n)))


@pytest.mark.parametrize("ctx", RINGS, ids=IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_hom_generators_equal_morphism_from_params_at_unit_vectors(ctx, data):
    src = data.draw(objects(ctx))
    dst = data.draw(objects(ctx))
    assert _hom_generators(src, dst) == unit_generators(src, dst)


@pytest.mark.parametrize("ctx", RINGS, ids=IDS)
def test_empty_smith_records_give_one_line_per_index(ctx):
    for exps in ([1], [0, 2], [0, 1, 2], [2, 0]):
        f = MonObject(ctx, diag_pi(ctx, exps))
        smith = f.smith
        assert (smith.row_ops == smith.col_ops == ()) == (exps == sorted(exps))
        n = len(exps)
        for lines, shape in ((smith.columns, (n, 1)), (smith.rows, (1, n))):
            assert len(lines) == n
            assert all((m.rows, m.cols) == shape for pair in lines for m in pair)
        assert _hom_generators(f, f) == unit_generators(f, f)


@pytest.mark.parametrize("ctx", RINGS, ids=IDS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_lines_are_the_columns_and_rows_of_the_transforms(ctx, data):
    smith = snf(data.draw(objects(ctx)).mat)
    n = smith.d.rows
    for j, (v_inv, u) in enumerate(smith.columns):
        assert v_inv == MatS(ctx, n, 1, smith.v_inv.entries[j::n])
        assert u == MatS(ctx, n, 1, smith.u.entries[j::n])
    for i, (v, u_inv) in enumerate(smith.rows):
        assert v == MatS(ctx, 1, n, smith.v.entries[i * n:(i + 1) * n])
        assert u_inv == MatS(ctx, 1, n, smith.u_inv.entries[i * n:(i + 1) * n])


def almost_split_middles(ctx: RingCtx) -> list:
    """The middle term of the almost split sequence ending at
    (1 + pi) pi^s, for each nonprojective s."""
    return [ar_sequence(MonObject(ctx, diag_pi(ctx, [s]).scale(ctx.one() + ctx.pi())))
            .middle for s in range(1, ctx.t)]


@pytest.mark.parametrize("ctx", RINGS, ids=IDS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_test_side_generators_equal_the_general_ones(ctx, data):
    ys = [data.draw(objects(ctx))] + almost_split_middles(ctx)
    for y in ys:
        for sp in range(ctx.t + 1):
            test = rank_one(ctx, sp)
            assert (_test_generators(test, y, y.smith.columns)
                    == _hom_generators(rank_one(ctx, sp), y))
            assert (_test_generators(y, test, y.smith.rows)
                    == _hom_generators(y, rank_one(ctx, sp)))


def split_sequence(f: MonObject) -> ArSequence:
    """The split sequence f -> f + f -> f."""
    ctx = f.ctx
    middle = direct_sum(f, f)
    col = MatS(ctx, 2, 1, (ctx.one(), ctx.zero()))
    row = MatS(ctx, 1, 2, (ctx.zero(), ctx.one()))
    return ArSequence(f, middle, f, MonMorphism(f, middle, col, col),
                      MonMorphism(middle, f, row, row))


@pytest.mark.parametrize("ctx", [RingCtx.int_local(2, 4), RingCtx.int_local(3, 3),
                                 RingCtx.poly_local(3, q=2)],
                         ids=["Z2", "Z3", "F2"])
def test_verifier_builds_no_test_smith_form_and_no_morphism_from_params(
        ctx, monkeypatch):
    f = MonObject(ctx, diag_pi(ctx, [1]).scale(ctx.one() + ctx.pi()))
    sequences = [ar_sequence(f), split_sequence(f)]
    tests = []

    def recording_rank_one(ring, s):
        tests.append(rank_one(ring, s))
        return tests[-1]

    def refusing(src, dst, params):
        raise AssertionError("the verifier built a morphism from parameters")

    monkeypatch.setattr(almost_split, "rank_one", recording_rank_one)
    monkeypatch.setattr(almost_split, "morphism_from_params", refusing)
    monkeypatch.setattr("monocat.sampling.morphism_from_params", refusing)
    verdicts = [verify_right_almost_split(seq)[1] for seq in sequences]
    assert verdicts == [True, False]
    assert len(tests) == ctx.t + 1
    assert all("smith" not in vars(test) for test in tests)
