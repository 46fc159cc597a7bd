"""The exact scalar kernel against naive oracles.

Matrix products normalize once per entry and the polynomial operations keep
coefficients canonical inline; both must give exactly what one normalized
operation at a time gives (``oracle_helpers``).  One Smith form reused for
many right-hand sides must answer exactly as a fresh solve does.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from monocat.linalg import MatS, snf, solve_linear, solve_with_snf
from monocat.rings import Poly, PolyFrac, RingCtx
from oracle_helpers import (naive_matmul, poly_add_ref, poly_divmod_ref,
                            poly_gcd_ref, poly_mul_ref, poly_neg_ref,
                            polyfrac_ref)

RINGS = [RingCtx.int_local(2, 2), RingCtx.int_local(3, 2),
         RingCtx.poly_local(2, 2), RingCtx.poly_local(2, 3),
         RingCtx.poly_local(2)]
FIELDS = [2, 3, None]


def coeffs(q, max_size=4):
    if q is None:
        c = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))
    else:
        c = st.integers(0, q - 1)
    return st.lists(c, max_size=max_size)


def polys(q, max_size=4):
    return coeffs(q, max_size).map(lambda cs: Poly.make(cs, q))


def nonzero_polys(q, max_size=4):
    return polys(q, max_size).filter(lambda f: not f.is_zero())


def scalars(ctx):
    """Fraction-field elements: a quarter of them zero, many over 1, so
    products often share a denominator."""
    if ctx.kind == "int-local":
        value = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                          st.sampled_from([1, 1, 2, 3, 5]))
    else:
        q = ctx.coeff_q
        den = st.one_of(st.just(Poly.make([1], q)), nonzero_polys(q, 3))
        value = st.builds(PolyFrac.make, nonzero_polys(q, 3), den)
    return st.one_of(value, value, value, st.just(ctx.zero()))


@st.composite
def matrix_pairs(draw):
    ctx = draw(st.sampled_from(RINGS))
    # shapes include empty, 1 x k and k x 1 factors
    r, k, c = (draw(st.integers(0, 3)) for _ in range(3))
    a = [draw(scalars(ctx)) for _ in range(r * k)]
    if r and draw(st.integers(0, 3)) == 0:  # a zero row
        row = draw(st.integers(0, r - 1))
        a[row * k:(row + 1) * k] = [ctx.zero()] * k
    b = MatS(ctx, k, c, tuple(draw(scalars(ctx)) for _ in range(k * c)))
    return MatS(ctx, r, k, tuple(a)), b


@settings(max_examples=200, deadline=None)
@given(matrix_pairs())
def test_matmul_equals_naive_product(pair):
    a, b = pair
    assert a @ b == naive_matmul(a, b)


@settings(deadline=None)
@given(st.sampled_from(FIELDS).flatmap(
    lambda q: st.tuples(polys(q), polys(q), nonzero_polys(q))))
def test_poly_ops_equal_make_built(fgh):
    f, g, h = fgh
    assert f + g == poly_add_ref(f, g)
    assert -f == poly_neg_ref(f)
    assert f * g == poly_mul_ref(f, g)
    assert f.divmod(h) == poly_divmod_ref(f, h)
    assert f.gcd(h) == poly_gcd_ref(f, h)
    assert h.gcd(f) == poly_gcd_ref(h, f)


@settings(deadline=None)
@given(st.sampled_from(FIELDS).flatmap(
    lambda q: st.tuples(polys(q), nonzero_polys(q), nonzero_polys(q, 1))))
def test_polyfrac_make_shortcuts_equal_full_gcd(args):
    num, den, const = args
    # general, constant-denominator and constant-numerator paths
    assert PolyFrac.make(num, den) == polyfrac_ref(num, den)
    assert PolyFrac.make(num, const) == polyfrac_ref(num, const)
    assert PolyFrac.make(const, den) == polyfrac_ref(const, den)
    one = Poly.make([1], num.q)
    assert PolyFrac.make(num, one) == polyfrac_ref(num, one)


SOLVE_RINGS = [RingCtx.int_local(2, 2), RingCtx.int_local(3, 2),
               RingCtx.poly_local(2, 2), RingCtx.poly_local(2)]


def ring_elements(ctx):
    """Elements of S: small numerators over unit denominators, so entries
    often share a valuation and the elimination cancels."""
    if ctx.kind == "int-local":
        den = st.sampled_from([d for d in (1, 1, 5, 7) if d % ctx.p])
        return st.builds(Fraction, st.integers(-8, 8), den)
    q = ctx.coeff_q
    one = Poly.make([1], q)
    den = st.sampled_from([one, one, Poly.make([1, 1], q)])  # 1 + x is a unit
    return st.builds(PolyFrac.make, polys(q, 3), den)


@st.composite
def linear_systems(draw):
    """a, then right-hand sides each tagged True when built as a @ x."""
    ctx = draw(st.sampled_from(SOLVE_RINGS))
    elem = ring_elements(ctx)
    rows = draw(st.integers(1, 4))
    cols = rows if draw(st.booleans()) else draw(st.integers(1, 4))
    entries = [draw(elem) for _ in range(rows * cols)]
    if rows > 1 and draw(st.booleans()):  # a repeated row: rank drops
        entries[-cols:] = entries[:cols]
    a = MatS(ctx, rows, cols, tuple(entries))
    k = draw(st.integers(1, 3))
    rhss = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            x = MatS(ctx, cols, k, tuple(draw(elem) for _ in range(cols * k)))
            rhss.append((a @ x, True))
        else:
            rhs = MatS(ctx, rows, k, tuple(draw(elem) for _ in range(rows * k)))
            rhss.append((rhs, False))
    return a, rhss


@settings(max_examples=150, deadline=None)
@given(linear_systems())
def test_one_smith_form_serves_every_rhs(system):
    a, rhss = system
    s = snf(a)
    for rhs, consistent in rhss:
        x = solve_with_snf(s, rhs)
        assert x == solve_linear(a, rhs)
        if x is None:
            assert not consistent
        else:
            assert a @ x == rhs
