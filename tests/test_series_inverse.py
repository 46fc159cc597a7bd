"""The power series inverse of a unit of k[x]_(x) modulo x^e
(``PolyLocal._inverse_den``), which every residue of a scalar with a
denominator and every pivot of ``linalg._residue_svals`` takes.

Over Q it is Newton's iteration on Polys in lowest terms.  The inverse is
the one polynomial g of degree below e with g * den = 1 modulo x^e, so
checking that product checks the value, for short and long, sparse and
dense units, with small and with large coefficients.
"""

import time

from hypothesis import given, settings, strategies as st

from monocat.rings import Poly, RingCtx

RINGS = [RingCtx.poly_local(2, 2), RingCtx.poly_local(2, 3), RingCtx.poly_local(2)]


@st.composite
def units(draw):
    """(ctx, den, e): den with a nonzero constant term, up to 60
    coefficients, over Q with integer or fractional coefficients."""
    ctx = draw(st.sampled_from(RINGS))
    q = ctx.coeff_q
    coeff = (st.integers(-10 ** 6, 10 ** 6) | st.fractions(max_denominator=10 ** 6)
             if q is None else st.integers(0, q - 1))
    cs = draw(st.lists(coeff, min_size=1, max_size=60))
    if not Poly.make(cs[:1], q):
        cs[0] = 1
    return ctx, Poly.make(cs, q), draw(st.integers(1, 80))


@settings(max_examples=200, deadline=None)
@given(units())
def test_series_inverse_times_the_unit_is_one_modulo_x_to_the_e(case):
    ctx, den, e = case
    inv = ctx._inverse_den(den, e)
    assert len(inv.ints) <= e
    assert (inv * den).truncate(e) == Poly.const(1, den.q)


def test_dense_rational_residues_invert_in_well_under_a_second():
    # the residue of (1 - x)/(2 + x) modulo x^462 has 462 coefficients over
    # 2^462; the integer recurrence scaled the k-th term of its inverse by
    # (2^461)^(k + 1) and took 5.4 s, where Newton's iteration takes 0.03 s
    ctx = RingCtx.poly_local(461)
    r = ctx.reduce_mod_omega(ctx.parse_scalar("(1 - x)/(2 + x)"))
    start = time.process_time()
    inv = ctx._inverse_den(r, 462)
    assert time.process_time() - start < 1.0
    assert (inv * r).truncate(462) == Poly.const(1)
