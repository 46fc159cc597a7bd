"""The one Smith elimination on poly-local rings, against its scalar
reference.

``oracle_helpers.reference_snf`` and ``reference_replay`` eliminate and
replay on scalar rows.  Over F_2[x]_(x), F_3[x]_(x) and Q[x]_(x), with
entries that carry non-unit denominators such as 1/(1 + x), ``snf`` must
give the same records, D and transforms, equal by ``repr``; and a matrix
outside S is refused as over Z_(p), as a negative pi power.
"""

import pytest
from hypothesis import given, settings, strategies as st

from monocat.linalg import MatS, mat, snf
from monocat.rings import Poly, RingCtx
from oracle_helpers import reference_snf, reference_transforms

RINGS = [RingCtx.poly_local(2, 2), RingCtx.poly_local(3, 3), RingCtx.poly_local(2)]
SHAPES = ("square", "wide", "tall", "singular", "zero", "1x1", "empty")
# denominators with a nonzero constant term: units of S that are not constants
DENS = ([1], [1], [1], [1, 1], [1, 0, 1], [1, 1, 1])


def scalars(ctx: RingCtx):
    """Elements of S: n x^k / d with n a short polynomial and d a unit, so
    entries share valuations, cancel, and carry denominators."""
    q = ctx.coeff_q
    coeff = st.integers(-2, 2) if q is None else st.integers(0, q - 1)
    poly = st.lists(coeff, max_size=3).map(lambda c: ctx.lift(Poly.make(c, q)))
    den = st.sampled_from(DENS).map(lambda d: ctx.lift(Poly.make(d, q)))
    return st.builds(lambda n, k, d: n * ctx.pi_pow(k) / d, poly, st.integers(0, 2), den)


@st.composite
def poly_local_matrices(draw):
    """Matrices over F_2[x]_(x), F_3[x]_(x) and Q[x]_(x) of every shape in
    SHAPES."""
    ctx = draw(st.sampled_from(RINGS))
    shape = draw(st.sampled_from(SHAPES))
    rows = {"1x1": 1, "empty": 0}.get(shape)
    if rows is None:
        rows = draw(st.integers(1, 3))
    cols = {"square": rows, "singular": rows, "1x1": 1,
            "wide": rows + draw(st.integers(1, 2)),
            "tall": max(rows - draw(st.integers(1, 2)), 1)}.get(shape)
    if cols is None:
        cols = draw(st.integers(0, 3))
    elem = scalars(ctx)
    entries = [draw(elem) for _ in range(rows * cols)]
    if shape == "zero":
        entries = [ctx.zero()] * (rows * cols)
    if shape == "singular" and rows > 1:
        c = draw(elem)
        entries[-cols:] = [c * x for x in entries[:cols]]
    return MatS(ctx, rows, cols, tuple(entries))


@settings(max_examples=300, deadline=None)
@given(poly_local_matrices())
def test_poly_local_smith_form_equals_the_scalar_reference(a):
    got, ref = snf(a), reference_snf(a)
    for name in ("d", "svals", "row_ops", "col_ops"):
        assert repr(getattr(got, name)) == repr(getattr(ref, name)), name
    for name, want in reference_transforms(ref).items():
        assert repr(getattr(got, name)) == repr(want), name
    assert got.u @ got.d @ got.v == a


@pytest.mark.parametrize("ctx", RINGS, ids=repr)
def test_poly_local_matrix_outside_s_is_refused_as_over_the_integers(ctx):
    x_inv = ctx.one() / ctx.pi()
    for rows in ([[x_inv, 1], [0, 1]], [[1, ctx.pi()], [x_inv * x_inv, 1]], [[x_inv]]):
        with pytest.raises(ValueError, match="^pi_pow takes a nonnegative exponent$"):
            snf(mat(ctx, rows))
