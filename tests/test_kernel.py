"""The exact scalar kernel against naive oracles.

Matrix products normalize once per entry and the polynomial operations keep
coefficients canonical inline; both must give exactly what one normalized
operation at a time gives (``oracle_helpers``).  Equality of sums of
products, decided without normalizing, must agree with ``==`` of the
normalized products.  Over Z_(p) every matrix operation on the cleared form
(integer numerators over one denominator) must give, in canonical form,
what entrywise Fraction arithmetic gives.  One Smith form reused for many
right-hand sides must answer exactly as a fresh solve does.  The Smith
transforms, replayed on first read, must equal those of the eager
elimination, and callers that need only part of them must build no more.
Exponents read modulo pi^e must be the exact ones capped at e.  The
polynomial kernel must also agree with Euclid on plain lists, which share
no code with ``Poly``: Fraction lists over Q, integer lists mod q over F_q,
the packed F_q product at every slot-width edge included.  PolyFrac
products and quotients, which cancel across, must equal the fraction of
the full products brought to lowest terms with one gcd, and two spies keep
the packed product and the single-term product entry from being dropped.
"""

import random
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import given, settings, strategies as st

from monocat import almost_split, category, linalg, rings, stable
from monocat.almost_split import _exactness_failure, ar_sequence, factor_strictly
from monocat.category import MonObject, identity_morphism, rank_one
from monocat.errors import CokernelNotOmegaTorsion, DivisionLeavesRing, NotMono
from monocat.homotopy import is_iso_in_homotopy, null_homotopy
from monocat.linalg import MatS, SnfResult, snf, solve_linear, truncated_svals
from monocat.rings import Poly, PolyFrac, RingCtx
from monocat.sampling import (morphism_from_params, random_morphism,
                              random_null_homotopic, random_object)
from oracle_helpers import (capped_svals, eager_snf, entrywise_add,
                            entrywise_in_ring, entrywise_neg,
                            dot_ref, entrywise_reduce, entrywise_scale,
                            fq_list_divmod, fq_list_gcd,
                            fq_list_lowest_terms, fq_list_monic, fq_list_mul,
                            frac_list_divmod, frac_list_gcd,
                            frac_list_lowest_terms, frac_list_mul,
                            frac_list_trim, is_canonical_cleared,
                            is_canonical_poly, naive_matmul,
                            poly_add_ref, poly_divmod_ref, poly_gcd_ref,
                            poly_monic_ref, poly_mul_ref, poly_neg_ref,
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
    return polys(q, max_size).filter(bool)


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
    assert linalg.add_products(a, b, a, b) == naive_matmul(a, b) + naive_matmul(a, b)


EQUALITY_RINGS = [RingCtx.int_local(2, 2), RingCtx.int_local(3, 2),
                  RingCtx.poly_local(2, 2), RingCtx.poly_local(2, 3),
                  RingCtx.poly_local(2, 5), RingCtx.poly_local(2)]


def units(ctx):
    """Units with distinct non-trivial denominators: 1/(1 + pi) and
    1/(1 + pi^2), and 2/3 over Q."""
    one = ctx.one()
    out = [one, one / (one + ctx.pi()), one / (one + ctx.pi_pow(2))]
    return out + [ctx.parse_scalar("2/3")] if ctx == RingCtx.poly_local(2) else out


def unit_scaled_matrices(ctx, rows, cols):
    entry = st.builds(lambda a, u: a * u, scalars(ctx), st.sampled_from(units(ctx)))
    return st.lists(entry, min_size=rows * cols, max_size=rows * cols).map(
        lambda es: MatS(ctx, rows, cols, tuple(es)))


@st.composite
def product_sums(draw):
    """a, b, c, d over one ring with a @ b + c @ d defined; inner sizes 0
    give empty sums, and a quarter of the right factors are zero."""
    ctx = draw(st.sampled_from(EQUALITY_RINGS))
    r, k1, k2, c = (draw(st.integers(lo, 3)) for lo in (1, 0, 0, 1))
    mats = [draw(unit_scaled_matrices(ctx, *shape))
            for shape in ((r, k1), (k1, c), (r, k2), (k2, c))]
    for i in (1, 3):
        if draw(st.integers(0, 3)) == 0:
            mats[i] = linalg.zeros(ctx, mats[i].rows, c)
    return mats


@settings(max_examples=150, deadline=None)
@given(product_sums(), st.data())
def test_sums_equal_matches_normalized_products(mats, data):
    a, b, c, d = mats
    ctx, r, n = a.ctx, a.rows, b.cols
    sums_equal = linalg.sums_equal
    x = naive_matmul(a, b) + naive_matmul(c, d)
    assert sums_equal(x, [(a, b), (c, d)])
    assert sums_equal([(c, d), (a, b)], x)
    assert sums_equal([(a, b)], [(c, d)]) == (naive_matmul(a, b) == naive_matmul(c, d))
    # terms that cancel, against a zero matrix and against an empty sum
    zero = linalg.zeros(ctx, r, n)
    assert sums_equal([(a, b), (-a, b)], zero)
    assert sums_equal([(c, d), (-c, d)],
                      [(linalg.zeros(ctx, r, 0), linalg.zeros(ctx, 0, n))])
    assert sums_equal(x, zero) == x.is_zero()
    # one entry moved by a unit times pi^k
    i = data.draw(st.integers(0, r * n - 1))
    u = data.draw(st.sampled_from(units(ctx))) * ctx.pi_pow(data.draw(st.integers(0, 3)))
    y = MatS(ctx, r, n, tuple(e + u if j == i else e for j, e in enumerate(x.entries)))
    assert not sums_equal(y, [(a, b), (c, d)])
    assert not sums_equal([(a, b), (c, d)], y)


@pytest.mark.parametrize("ctx", EQUALITY_RINGS, ids=str)
def test_sums_equal_takes_both_denominator_paths(ctx, monkeypatch):
    """u = 1/(1 + pi) against u * 1, over the same denominator, and against
    u^2 * (1/u), accumulated over (1 + pi)^2."""
    paths, real = [], linalg._same

    def spy(x, y):
        paths.append(x[1] == y[1])
        return real(x, y)

    monkeypatch.setattr(linalg, "_same", spy)
    u = units(ctx)[1]
    one = MatS(ctx, 1, 1, (u,)), MatS(ctx, 1, 1, (ctx.one(),))
    square = MatS(ctx, 1, 1, (u * u,)), MatS(ctx, 1, 1, (ctx.one() / u,))
    assert linalg.sums_equal(one[0], [one])
    assert linalg.sums_equal(one[0], [square])
    assert not linalg.sums_equal(one[0], [square, one])
    assert paths == [True, False, False]


CLEARED_RINGS = [RingCtx.int_local(2, 2), RingCtx.int_local(3, 1)]


def cleared_scalars(ctx):
    """Elements of Q, a third of them zero; the denominators 2, 3, 4 and 9
    put p in some of them, so results may leave S."""
    value = st.builds(Fraction, st.integers(-12, 12).filter(bool),
                      st.sampled_from([1, 1, 2, 3, 4, 5, 9]))
    return st.one_of(value, value, st.just(ctx.zero()))


@st.composite
def cleared_operands(draw):
    """A ring, matrices a, c (r x k), b, d (k x c) and e (r x c), and a
    scalar s.  Sizes start at 0, so 0 x n and n x 0 shapes occur, and a
    quarter of the matrices are zero."""
    ctx = draw(st.sampled_from(CLEARED_RINGS))
    r, k, c = (draw(st.integers(0, 3)) for _ in range(3))

    def matrix(rows, cols):
        if draw(st.integers(0, 3)) == 0:
            return linalg.zeros(ctx, rows, cols)
        return MatS(ctx, rows, cols,
                    tuple(draw(cleared_scalars(ctx)) for _ in range(rows * cols)))

    mats = [matrix(*shape) for shape in ((r, k), (k, c), (r, k), (k, c), (r, c))]
    return ctx, mats, draw(cleared_scalars(ctx))


def assert_cleared_equals(got, want):
    """got, computed in cleared form, against want, computed one Fraction
    at a time: every reader on the cleared form first, then ==, hash and
    the Fraction view."""
    assert is_canonical_cleared(got)
    assert got.is_zero() == (not any(want.entries))
    inside = entrywise_in_ring(want)
    assert got.in_ring() == inside
    if inside:
        assert linalg.reduce_mat(got) == entrywise_reduce(want)
        t = got.ctx.t
        capped = capped_svals(want, t + 1)
        for e in (1, t, t + 1):
            assert truncated_svals(got, e) == tuple(min(s, e) for s in capped)
    else:
        errors = []
        for reduce in (lambda: linalg.reduce_mat(got), lambda: entrywise_reduce(want)):
            with pytest.raises(DivisionLeavesRing) as info:
                reduce()
            errors.append(str(info.value))
        assert errors[0] == errors[1]
    assert got == want and want == got
    assert hash(got) == hash(want)
    assert got.entries == want.entries
    assert got._ints() == want._ints()


@settings(max_examples=80, deadline=None)
@given(cleared_operands())
def test_cleared_form_equals_entrywise_fractions(operands):
    ctx, (a, b, c, d, e), s = operands
    ab, cd = naive_matmul(a, b), naive_matmul(c, d)
    cases = [(a @ b, ab),
             (linalg.add_products(a, b, c, d), entrywise_add(ab, cd)),
             (a + c, entrywise_add(a, c)),
             (a - c, entrywise_add(a, entrywise_neg(c))),
             (-a, entrywise_neg(a)),
             (a.scale(s), entrywise_scale(a, s)),
             # operands that are themselves in cleared form
             ((a @ b) + e, entrywise_add(ab, e)),
             ((a @ b).scale(s) - e, entrywise_add(entrywise_scale(ab, s),
                                                  entrywise_neg(e))),
             (-(c @ d), entrywise_neg(cd))]
    for got, want in cases:
        assert_cleared_equals(got, want)
    # matrices in cleared form, none with a Fraction view yet, equal and not
    x, y = a @ b, linalg.add_products(a, b, c, d) - c @ d
    third = x.scale(Fraction(1, 3))
    assert x == y and (third == x) == x.is_zero()
    assert hash(x) == hash(y)


@settings(max_examples=50, deadline=None)
@given(cleared_operands(), st.data())
def test_cleared_sums_equal_matches_entrywise_values(operands, data):
    ctx, (a, b, c, d, e), s = operands
    value = entrywise_add(naive_matmul(a, b), naive_matmul(c, d))
    one = linalg.identity(ctx, value.cols)
    sides = [([(a, b), (c, d)], value),
             ([(c, d), (a, b)], value),
             (value, value),
             (linalg.add_products(a, b, c, d), value),
             ([(value, one)], value),
             (e, e),
             ([(e, one), (a, b)], entrywise_add(e, naive_matmul(a, b)))]
    if value.entries:
        moved = list(value.entries)
        moved[data.draw(st.integers(0, len(moved) - 1))] += data.draw(
            cleared_scalars(ctx).filter(bool))
        moved = MatS(ctx, value.rows, value.cols, tuple(moved))
        sides.append((moved, moved))
    for i, (left, lvalue) in enumerate(sides):
        for right, rvalue in sides[i:]:
            equal = lvalue.entries == rvalue.entries
            assert linalg.sums_equal(left, right) == equal
            assert linalg.sums_equal(right, left) == equal


def assert_pseudo_division(a, b):
    """``rings._pseudo_divmod`` on integer lists, the division of Q: s > 0,
    s*a = quo*b + rem with deg rem < deg b, s = 1 when b divides a in
    Z[x], and quo/s and rem/s are what Fraction long division gives."""
    s, quo, rem = rings._pseudo_divmod(a, b)
    assert s > 0 and len(rem) < len(b) and frac_list_trim(list(rem)) == rem
    assert all(type(c) is int for c in (*quo, *rem))
    assert frac_list_trim([Fraction(s * c) for c in a]) == frac_list_trim(
        [x + y for x, y in zip_longest(frac_list_mul(quo, b), rem, fillvalue=0)])
    want_quo, want_rem = frac_list_divmod([Fraction(c) for c in a], b)
    assert frac_list_trim([Fraction(c, s) for c in quo]) == want_quo
    assert [Fraction(c, s) for c in rem] == want_rem
    if not want_rem and all(c.denominator == 1 for c in want_quo):
        assert s == 1


@settings(deadline=None)
@given(st.sampled_from(FIELDS).flatmap(
    lambda q: st.tuples(polys(q), polys(q), nonzero_polys(q))))
def test_poly_ops_equal_make_built(fgh):
    f, g, h = fgh
    assert f + g == poly_add_ref(f, g)
    assert -f == poly_neg_ref(f)
    assert f * g == poly_mul_ref(f, g)
    if f.q is None:
        assert_pseudo_division(f.ints, h.ints)
    else:
        fh, monic = poly_mul_ref(f, h), poly_monic_ref(h)
        assert (rings._fq_quotient(fh.ints, monic.ints, f.q)
                == poly_divmod_ref(fh, monic)[0].ints)
    assert f.gcd(h) == poly_gcd_ref(f, h)
    assert h.gcd(f) == poly_gcd_ref(h, f)
    # the constant 1 returns the other factor; 1/2 over Q multiplies
    one = Poly.make([1], f.q)
    for p in (f * one, one * f):
        assert p == f and is_canonical_poly(p)
    if f.q is None:
        half = Poly.make([Fraction(1, 2)])
        for p in (f * half, half * f):
            assert p == poly_mul_ref(f, half) and is_canonical_poly(p)


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


def prime_field_lists(q, max_degree=8):
    return st.lists(st.integers(0, q - 1), max_size=max_degree + 1).map(frac_list_trim)


@settings(deadline=None)
@given(st.sampled_from([2, 3, 5, 7]).flatmap(lambda q: st.tuples(
    st.just(q), prime_field_lists(q).filter(bool), prime_field_lists(q),
    prime_field_lists(q).filter(bool))))
def test_prime_field_kernel_matches_integer_list_euclid(args):
    q, g, h1, h2 = args
    # f and k share the planted factor g, whose leading coefficient, like
    # that of k, need not be 1 over F_3, F_5 and F_7
    f, k = fq_list_mul(g, h1, q), fq_list_mul(g, h2, q)
    ref = fq_list_gcd(f, k, q)
    assert len(ref) >= len(g)
    F, K, G = (Poly.make(cs, q) for cs in (f, k, g))
    got = F.gcd(K)
    assert got.coeffs == K.gcd(F).coeffs == tuple(ref)
    # the quotient kernel, by the monic planted factor and by the gcd
    for b in (fq_list_monic(g, q), ref):
        for a in (f, k):
            want, rem = fq_list_divmod(a, b, q)
            assert not rem and list(rings._fq_quotient(a, b, q)) == want
    out = [got, F, K, G]
    frac = PolyFrac.make(F, K)
    num, den = fq_list_lowest_terms(f, k, q)
    assert (frac.numerator.coeffs, frac.denominator.coeffs) == (tuple(num), tuple(den))
    out += [frac.numerator, frac.denominator]
    assert all(is_canonical_poly(p) for p in out)


def rational_lists(max_degree=6):
    """Q[x] as Fraction lists: numerators up to 50 in absolute value."""
    c = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 9))
    return st.lists(c, max_size=max_degree + 1).map(frac_list_trim)


@settings(deadline=None)
@given(rational_lists().filter(bool), rational_lists(), rational_lists().filter(bool))
def test_rational_kernel_matches_fraction_euclid(g, h1, h2):
    # f and k share the planted factor g, so their gcd has degree >= deg g
    f, k = frac_list_mul(g, h1), frac_list_mul(g, h2)
    ref = frac_list_gcd(f, k)
    assert len(ref) >= len(g)
    big, real = [], rings._pseudo_divmod

    def spy(a, b):
        big.append(max(abs(c).bit_length() for c in (*a, *b)))
        return real(a, b)

    F, K, G = (Poly.make(cs, None) for cs in (f, k, g))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rings, "_pseudo_divmod", spy)
        got = F.gcd(K)
    assert got.coeffs == tuple(ref)
    assert K.gcd(F).coeffs == tuple(ref)
    # the remainder sequence stays primitive: its members are similar to
    # subresultants, whose coefficients the Hadamard bound of the n x n
    # Sylvester matrix caps at n * (B + log2 n) bits
    n = len(f) + len(k)
    bits = max(c.bit_length() for c in F.ints + K.ints)
    assert max(big, default=0) <= n * (bits + n.bit_length())
    for a, b in ((f, k), (k, g), (f, g)):
        assert_pseudo_division(Poly.make(a, None).ints, Poly.make(b, None).ints)
    out = [got, F, K, G]
    frac = PolyFrac.make(F, K)
    num, den = frac_list_lowest_terms(f, k)
    assert (frac.numerator.coeffs, frac.denominator.coeffs) == (tuple(num), tuple(den))
    out += [frac.numerator, frac.denominator]
    assert all(is_canonical_poly(p) for p in out)


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
def smith_inputs(draw, rings=RINGS):
    """Square, rectangular and empty matrices over S, some with a zero row
    and some singular through a repeated row."""
    ctx = draw(st.sampled_from(rings))
    elem = ring_elements(ctx)
    rows = draw(st.integers(0, 4))
    cols = rows if draw(st.booleans()) else draw(st.integers(0, 4))
    entries = [draw(elem) for _ in range(rows * cols)]
    if rows > 1 and cols and draw(st.booleans()):
        if draw(st.booleans()):
            entries[-cols:] = [ctx.zero()] * cols
        else:
            entries[-cols:] = entries[:cols]
    return MatS(ctx, rows, cols, tuple(entries))


TRANSFORMS = ("u", "v", "u_inv", "v_inv")


@settings(max_examples=200, deadline=None)
@given(smith_inputs())
def test_replayed_transforms_equal_the_eager_elimination(a):
    lazy, eager = snf(a), eager_snf(a)
    # repr also tells an int coefficient from an equal Fraction
    for name in ("d", "svals") + TRANSFORMS:
        assert repr(getattr(lazy, name)) == repr(getattr(eager, name)), name
    assert lazy.u @ lazy.d @ lazy.v == a


# Z_(2), Z_(3), F_2[x]_(x), F_3[x]_(x), Q[x]_(x)
TRUNCATED_RINGS = [RingCtx.int_local(2, 3), RingCtx.int_local(3, 2),
                   RingCtx.poly_local(2, 2), RingCtx.poly_local(3, 3),
                   RingCtx.poly_local(2)]


@settings(max_examples=300, deadline=None)
@given(smith_inputs(TRUNCATED_RINGS), st.sampled_from(["1", "t", "t+1"]))
def test_truncated_svals_cap_the_exact_exponents(a, cap):
    t = a.ctx.t
    e = {"1": 1, "t": t, "t+1": t + 1}[cap]
    assert truncated_svals(a, e) == tuple(min(s, e) for s in snf(a).svals)


@pytest.mark.parametrize("ctx", TRUNCATED_RINGS, ids=repr)
def test_validation_refuses_as_the_exact_smith_form_does(ctx):
    t, pi = ctx.t, ctx.pi()
    one, zero = ctx.one(), ctx.zero()
    singular = [MatS(ctx, 2, 2, (pi, pi, one, one)),
                MatS(ctx, 2, 2, (zero, zero, zero, ctx.pi_pow(t + 5)))]
    for m in singular:
        with pytest.raises(NotMono, match="^object matrix has zero determinant$"):
            MonObject(ctx, m)
    # the message names the exact exponent, not its cap t + 1
    for k in (t + 1, t + 3):
        m = MatS(ctx, 2, 2, (one, pi, zero, ctx.pi_pow(k)))
        with pytest.raises(CokernelNotOmegaTorsion) as info:
            MonObject(ctx, m)
        assert str(info.value) == f"elementary divisor exponent {k} exceeds t={t}"
    m = MatS(ctx, 2, 2, (pi, one, zero, ctx.pi_pow(t - 1)))
    assert MonObject(ctx, m).svals == (0, t)


@pytest.fixture
def smith_record(monkeypatch):
    """Every Smith form taken while the test runs, wherever snf or
    truncated_svals is imported: an SnfResult, or a tuple of capped
    exponents."""
    made = []

    def recording_snf(a):
        made.append(snf(a))
        return made[-1]

    def recording_truncated(a, e):
        made.append(truncated_svals(a, e))
        return made[-1]

    for module in (linalg, category, almost_split, stable):
        for name, recording in (("snf", recording_snf),
                                ("truncated_svals", recording_truncated)):
            if name in vars(module):
                monkeypatch.setattr(module, name, recording)
    return made


def built(results) -> set:
    return {name for r in results if isinstance(r, SnfResult)
            for name in TRANSFORMS if name in r.__dict__}


SAMPLE_RINGS = [RingCtx.int_local(2, 3), RingCtx.int_local(3, 2),
                RingCtx.poly_local(2, 2), RingCtx.poly_local(2, 3),
                RingCtx.poly_local(1)]


def test_svals_readers_build_no_transform(smith_record):
    rng = random.Random(5)
    morphisms = []
    for ctx in SAMPLE_RINGS:
        a, b = (random_object(ctx, rng, 2) for _ in range(2))
        morphisms.append(random_morphism(a, b, rng))
    sequences = [ar_sequence(rank_one(ctx, 1)) for ctx in SAMPLE_RINGS[:4]]
    del smith_record[:]
    for ctx in SAMPLE_RINGS:
        obj = random_object(ctx, rng, 3)
        obj.is_projective()
        recorded = len(smith_record)
        fresh = MonObject(ctx, obj.mat)
        # validating an object takes one truncated elimination, no SnfResult
        assert smith_record[recorded:] == [fresh.svals]
    assert not any(isinstance(r, SnfResult) for r in smith_record)
    for psi in morphisms:
        is_iso_in_homotopy(psi)
    for seq in sequences:
        assert _exactness_failure(seq.tau_f, seq.middle, seq.end, seq.theta,
                                  seq.g) is None
    assert len(smith_record) > 20
    assert built(smith_record) == set()


def test_inverse_readers_build_no_forward_transform(smith_record):
    rng = random.Random(6)
    cases = []
    for ctx in SAMPLE_RINGS[:4]:
        seq = ar_sequence(rank_one(ctx, 1))
        test = rank_one(ctx, 2)
        h = morphism_from_params(test, seq.end, [ctx.one()])
        cases.append((seq.g, h))
    del smith_record[:]
    for ctx in SAMPLE_RINGS:
        a, b = (random_object(ctx, rng, 3) for _ in range(2))
        a.partner_mat
        null_homotopy(random_null_homotopic(a, b, rng)[0])
        null_homotopy(identity_morphism(rank_one(ctx, 1)))
    for g, h in cases:
        factor_strictly(g, h)
    assert built(smith_record) == {"u_inv", "v_inv"}


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
    """Several right-hand sides of one a: ``solve_linear`` solves each
    consistent system and gives None on each inconsistent one."""
    a, rhss = system
    for rhs, consistent in rhss:
        x = solve_linear(a, rhs)
        if x is None:
            assert not consistent
        else:
            assert a @ x == rhs


# ---------------------------------------------------------------------------
# Products, gcds and lowest terms against plain lists, at every packing edge

KERNEL_FIELDS = [2, 3, 5, 7, 257, 65537, 2 ** 61 - 1]
# the least min(len) at which min(len) * (q - 1)^2, the largest coefficient
# of an unreduced product, needs more than 8 bits (q <= 7); 257, 65537 and
# 2^61 - 1 need more than 8 bits at every length
SLOT_EDGES = {2: 256, 3: 64, 5: 16, 7: 8, 257: 1, 65537: 1, 2 ** 61 - 1: 1}


def fq_operand(rng, q, n, kind):
    """n coefficients mod q with a nonzero leading one: all q - 1, random,
    sparse, or random under a leading q - 1."""
    if kind == "full":
        return [q - 1] * n
    if kind == "sparse":
        cs = [0] * n
        for i in rng.sample(range(n), min(n, 3)):
            cs[i] = rng.randrange(1, q)
    else:
        cs = [rng.randrange(q) for _ in range(n)]
    cs[-1] = q - 1 if kind == "top" else rng.randrange(1, q)
    return cs


def length_pairs(rng, q):
    """Lengths around the slot edge of q, around a crossover of a few
    dozen coefficient products, and drawn from 1-300."""
    e = SLOT_EDGES[q]
    edge = [(m, n) for m in (e - 1, e) if m for n in (m, m + 1, 300)]
    small = [(1, 1), (1, 23), (1, 24), (2, 12), (3, 8), (4, 6), (5, 5), (4, 7), (6, 6)]
    return edge + small + [(rng.randint(1, 300), rng.randint(1, 40)) for _ in range(3)]


@pytest.mark.parametrize("q", KERNEL_FIELDS)
def test_fq_products_match_list_products_at_every_slot_edge(q):
    rng = random.Random(q)
    zero, const = Poly.make([], q), Poly.make([q - 1], q)
    for m, n in length_pairs(rng, q):
        for kind in ("full", "random", "sparse", "top"):
            f, g = fq_operand(rng, q, m, kind), fq_operand(rng, q, n, kind)
            F, G = Poly.make(f, q), Poly.make(g, q)
            want = tuple(fq_list_mul(f, g, q))
            assert (F * G).ints == (G * F).ints == want
            assert is_canonical_poly(F * G)
        for p in (F, G):
            assert (p * zero).ints == (zero * p).ints == ()
            assert (p * const).ints == (const * p).ints == tuple(fq_list_mul(p.ints, [q - 1], q))


def test_rational_products_match_fraction_list_products():
    rng = random.Random(11)

    def operand(n):
        cs = [Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3])) for _ in range(n)]
        cs[-1] = cs[-1] or Fraction(6)
        return cs

    for m, n in [(1, 1), (1, 300), (4, 6), (5, 5), (24, 24), (300, 3), (60, 70)]:
        f, g = operand(m), operand(n)
        # content: every integer numerator divisible by 6
        for f in (f, [6 * c for c in f]):
            F, G = Poly.make(f, None), Poly.make(g, None)
            assert (F * G).coeffs == (G * F).coeffs == tuple(frac_list_mul(f, g))
            assert is_canonical_poly(F * G)


def fq_gcd_pairs(rng, q):
    """Pairs of coefficient lists mod q: a planted common factor, coprime
    (f and f + c), one dividing the other both ways round, equal inputs,
    and a zero side."""
    def poly(n, kind="random"):
        return fq_operand(rng, q, n, kind)

    pairs = []
    for n in (1, 2, 3, 5, 8, 20):
        g, h1, h2 = poly(n, "top"), poly(rng.randint(1, 8)), poly(rng.randint(1, 8))
        f = poly(n + 2)
        pairs += [(fq_list_mul(g, h1, q), fq_list_mul(g, h2, q)),
                  (f, frac_list_trim([(f[0] + rng.randrange(1, q)) % q] + f[1:])),
                  (g, fq_list_mul(g, h1, q)), (fq_list_mul(g, h1, q), g),
                  (f, list(f)), (poly(n, "sparse"), poly(n + 3, "full")), ([], f)]
    return pairs


@pytest.mark.parametrize("q", [2, 3, 5, 7, 257, 65537])
def test_fq_gcd_and_lowest_terms_match_list_euclid(q):
    rng = random.Random(q + 1)
    for f, k in fq_gcd_pairs(rng, q):
        F, K = Poly.make(f, q), Poly.make(k, q)
        ref = tuple(fq_list_gcd(f, k, q))
        assert F.gcd(K).ints == K.gcd(F).ints == ref
        if k:
            frac = PolyFrac.make(F, K)
            num, den = fq_list_lowest_terms(f, k, q)
            assert (frac.numerator.ints, frac.denominator.ints) == (tuple(num), tuple(den))
            assert is_canonical_poly(frac.numerator) and is_canonical_poly(frac.denominator)


@st.composite
def fraction_pairs(draw):
    """Two PolyFracs in lowest terms over F_2, F_3 or Q whose cross pairs
    (numerator of one, denominator of the other) share planted factors;
    over Q the factors are not monic on the integers (2x - 1, 3x + 2) and
    numerators carry content."""
    q = draw(st.sampled_from(FIELDS))
    if q is None:
        factor = st.sampled_from([[-1, 2], [2, 3], [Fraction(1, 2), 1], [0, 1], [5]])
        plant = factor.map(lambda cs: Poly.make(cs, None))
    else:
        plant = nonzero_polys(q, 3)
    g1, g2 = draw(plant), draw(plant)
    n1, d1, n2, d2 = (draw(nonzero_polys(q, 2)) for _ in range(4))
    if q is None:
        n1, n2 = (poly_mul_ref(n, Poly.make([draw(st.sampled_from([1, 6, -4]))], None))
                  for n in (n1, n2))
    if draw(st.booleans()):  # quotient shapes: b's numerator gets g1
        a = polyfrac_ref(poly_mul_ref(g1, n1), poly_mul_ref(g2, d1))
        b = polyfrac_ref(poly_mul_ref(g2, n2), poly_mul_ref(g1, d2))
    else:  # product shapes: a's numerator and b's denominator share g1
        a = polyfrac_ref(poly_mul_ref(g1, n1), d1)
        b = polyfrac_ref(poly_mul_ref(g2, n2), poly_mul_ref(g1, d2))
    if draw(st.integers(0, 7)) == 0:
        a = polyfrac_ref(Poly.make([], q), d1)
    return a, b


@settings(max_examples=60, deadline=None)
@given(fraction_pairs())
def test_polyfrac_products_equal_the_full_gcd_reference(pair):
    a, b = pair
    an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
    products = [(a * b, polyfrac_ref(poly_mul_ref(an, bn), poly_mul_ref(ad, bd))),
                (b * a, polyfrac_ref(poly_mul_ref(bn, an), poly_mul_ref(bd, ad))),
                (a / b, polyfrac_ref(poly_mul_ref(an, bd), poly_mul_ref(ad, bn)))]
    if a:
        products.append((b / a, polyfrac_ref(poly_mul_ref(bn, ad), poly_mul_ref(bd, an))))
    for got, want in products:
        # the fields, so a non-monic denominator of the same value fails
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert got.denominator.coeffs[-1] == 1
        assert is_canonical_poly(got.numerator) and is_canonical_poly(got.denominator)


PRODUCT_RINGS = [RingCtx.poly_local(2, 2), RingCtx.poly_local(2, 3), RingCtx.poly_local(2)]


def random_nonzero_scalar(rng, q):
    def poly(n):
        cs = [rng.randrange(q) if q else Fraction(rng.randint(-4, 4), rng.choice([1, 2]))
              for _ in range(n)]
        return Poly.make(cs + [rng.randrange(1, q) if q else rng.choice([1, -2, 3])], q)

    return PolyFrac.make(poly(rng.randint(0, 2)), poly(rng.randint(0, 1)))


@pytest.mark.parametrize("ctx", PRODUCT_RINGS, ids=str)
def test_poly_local_product_entries_equal_the_summed_reference(ctx):
    """Rows of a with 1, 2 and 0 nonzero entries give product entries of
    1, 2 and 0 nonzero terms, each against the terms summed through
    ``polyfrac_ref``."""
    rng, zero = random.Random(str(ctx)), ctx.zero()
    for _ in range(12):
        x, y, z, u, v, w, s = (random_nonzero_scalar(rng, ctx.coeff_q) for _ in range(7))
        a = MatS(ctx, 3, 2, (x, zero, y, z, zero, zero))
        b = MatS(ctx, 2, 2, (u, v, w, s))
        got = a @ b
        for i in range(3):
            for j in range(2):
                pairs = [(a.at(i, k), b.at(k, j)) for k in range(2) if a.at(i, k)]
                assert got.at(i, j) == dot_ref(pairs, ctx)
        assert got == linalg.add_products(a, b, linalg.zeros(ctx, 3, 1),
                                          linalg.zeros(ctx, 1, 2))


def test_fq_products_pack_from_the_crossover_on(monkeypatch):
    """Over F_3 the packed product runs exactly when len(a) * len(b)
    reaches ``PACKED_MIN``; below it the schoolbook loop runs."""
    packed, real = [], rings._packed_mul

    def spy(a, b, q):
        packed.append(len(a) * len(b))
        return real(a, b, q)

    monkeypatch.setattr(rings, "_packed_mul", spy)
    n, rng = rings.PACKED_MIN, random.Random(3)
    sizes = [(m, -(-n // m)) for m in (1, 2, 3)]
    for m, k in sizes + [(m, k - 1) for m, k in sizes]:
        f, g = fq_operand(rng, 3, m, "top"), fq_operand(rng, 3, k, "random")
        assert (Poly.make(f, 3) * Poly.make(g, 3)).ints == tuple(fq_list_mul(f, g, 3))
    assert packed == [m * k for m, k in sizes]
    assert min(packed) == n


def test_single_term_product_entries_skip_make(monkeypatch):
    """A product entry with one nonzero term is that term's cross-cancelled
    product, with no PolyFrac.make; an entry of two terms makes once."""
    ctx = RingCtx.poly_local(2, 3)
    zero, u = ctx.zero(), ctx.parse_scalar("(1 + x)/(1 + 2*x)")
    v, w = ctx.parse_scalar("(2 + x^2)/(1 + x)"), ctx.parse_scalar("x/(1 + x + x^2)")
    made, real = [], PolyFrac.make

    def spy(num, den):
        made.append((num, den))
        return real(num, den)

    monkeypatch.setattr(PolyFrac, "make", staticmethod(spy))
    one_term = MatS(ctx, 1, 2, (u, zero)) @ MatS(ctx, 2, 1, (v, w))
    assert one_term.entries == (polyfrac_ref(poly_mul_ref(u.numerator, v.numerator),
                                             poly_mul_ref(u.denominator, v.denominator)),)
    assert made == []
    two_terms = MatS(ctx, 1, 2, (u, w)) @ MatS(ctx, 2, 1, (v, w))
    assert two_terms.entries == (dot_ref([(u, v), (w, w)], ctx),)
    assert len(made) == 1
