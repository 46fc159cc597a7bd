"""The int-local Smith layer on integers, against its scalar reference.

Over Z_(p), ``snf`` eliminates on the cleared form of a matrix (integer
numerators over a denominator), ``_replay`` builds U, V, U^-1 and V^-1 as
cleared forms, and ``truncated_svals`` reads its residues from the cleared
form.  ``oracle_helpers.reference_snf`` and ``reference_replay`` keep the
elimination and replay on scalar rows, which every ring can run: the
records, D and the four transforms must equal theirs, and the int-local
path must build no entries.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from monocat.errors import DivisionLeavesRing
from monocat.linalg import (MatS, _quotient, diag_pi, identity, mat,
                            random_unimodular, snf, truncated_svals)
from monocat.rings import RingCtx
from oracle_helpers import (entrywise_truncated_svals, reference_snf,
                            reference_transforms)

RINGS = [RingCtx.int_local(2, 2), RingCtx.int_local(2, 3), RingCtx.int_local(3, 2)]
SHAPES = ("square", "wide", "tall", "singular", "zero", "1x1", "empty")
TRANSFORMS = ("u", "v", "u_inv", "v_inv")


def scalars(p: int):
    """Elements of S: n p^k / d with d a p-unit, so entries share
    valuations, cancel, and carry denominators."""
    den = st.sampled_from([d for d in (1, 1, 1, 5, 7, 25, 35) if d % p])
    return st.builds(lambda n, k, d: Fraction(n * p ** k, d),
                     st.integers(-9, 9), st.integers(0, 3), den)


@st.composite
def int_local_matrices(draw):
    """Matrices over Z_(2) and Z_(3) of every shape in SHAPES, built from
    entries or handed over in cleared form (entries not yet built)."""
    ctx = draw(st.sampled_from(RINGS))
    shape = draw(st.sampled_from(SHAPES))
    rows = {"1x1": 1, "empty": 0}.get(shape)
    if rows is None:
        rows = draw(st.integers(1, 4))
    cols = {"square": rows, "singular": rows, "1x1": 1,
            "wide": rows + draw(st.integers(1, 2)),
            "tall": max(rows - draw(st.integers(1, 2)), 1)}.get(shape)
    if cols is None:
        cols = draw(st.integers(0, 4))
    elem = scalars(ctx.p)
    entries = [draw(elem) for _ in range(rows * cols)]
    if shape == "zero":
        entries = [Fraction(0)] * (rows * cols)
    if shape == "singular" and rows > 1:
        c = draw(elem)
        entries[-cols:] = [c * x for x in entries[:cols]]
    a = MatS(ctx, rows, cols, tuple(entries))
    return a @ identity(ctx, cols) if draw(st.booleans()) else a


@settings(max_examples=400, deadline=None)
@given(int_local_matrices())
def test_integer_smith_form_equals_the_scalar_reference(a):
    got, ref = snf(a), reference_snf(a)
    assert got == ref
    # repr also tells an int from an equal Fraction
    for name in ("d", "svals", "row_ops", "col_ops"):
        assert repr(getattr(got, name)) == repr(getattr(ref, name)), name
    for name, want in reference_transforms(ref).items():
        assert repr(getattr(got, name)) == repr(want), name
    assert got.u @ got.d @ got.v == a


@settings(max_examples=300, deadline=None)
@given(int_local_matrices(), st.integers(1, 4))
def test_truncated_svals_read_the_cleared_form(a, e):
    assert truncated_svals(a, e) == entrywise_truncated_svals(a, e)


def cleared_inputs(ctx):
    """Matrices computed in cleared form: products with units and
    denominators, square and rectangular, one of them singular."""
    out = []
    for seed in range(4):
        n = 2 + seed % 3
        u = random_unimodular(n, seed, ctx)
        v = random_unimodular(n, seed + 50, ctx)
        exps = [(seed + i) % (ctx.t + 1) for i in range(n)]
        out.append((u @ diag_pi(ctx, exps) @ v).scale(Fraction(3, 5)))
    wide = mat(ctx, [[1, 2, 3], [ctx.p, 5, 6]]) @ random_unimodular(3, 9, ctx)
    singular = mat(ctx, [[1, 2], [2, 4]]) @ random_unimodular(2, 3, ctx)
    return out + [wide, wide.scale(Fraction(1, 11)), singular]


@pytest.mark.parametrize("ctx", RINGS, ids=repr)
def test_int_local_smith_layer_builds_no_entries(ctx):
    for a in cleared_inputs(ctx):
        assert a._entries is None
        s = snf(a)
        truncated_svals(a, ctx.t + 1)
        outs = [a, s.d] + [getattr(s, name) for name in TRANSFORMS]
        assert [m._entries for m in outs] == [None] * len(outs)


@pytest.mark.parametrize("ctx", RINGS, ids=repr)
def test_int_local_matrix_outside_s_is_refused_as_before(ctx):
    a = mat(ctx, [[Fraction(1, ctx.p), 1], [0, 1]])
    for given_as in (a, a @ identity(ctx, 2)):
        with pytest.raises(ValueError, match="^pi_pow takes a nonnegative exponent$"):
            snf(given_as)
        with pytest.raises(ValueError, match="^base is not invertible for the "
                                             "given modulus$"):
            truncated_svals(given_as, ctx.t)


@pytest.mark.parametrize("ctx", RINGS, ids=repr)
def test_integer_quotients_are_checked_as_div_exact_checks_them(ctx):
    assert _quotient(ctx, 3 * ctx.p, 5, -6, 7) == ctx.div_exact(
        Fraction(3 * ctx.p, 5), Fraction(-6, 7))
    with pytest.raises(DivisionLeavesRing) as want:
        ctx.div_exact(Fraction(1, 5), Fraction(ctx.p, 7))
    with pytest.raises(DivisionLeavesRing) as got:
        _quotient(ctx, 1, 5, ctx.p, 7)
    assert str(got.value) == str(want.value)
