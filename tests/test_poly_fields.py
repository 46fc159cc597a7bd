"""Poly's field-independent bodies, through the public API: ``Poly.make``
from ints, Fractions and a generator, negation, and ``PolyFrac.make``, each
on F_2, F_3, F_5 and Q against coefficientwise references."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from monocat.cli import main
from monocat.rings import Poly, PolyFrac
from oracle_helpers import (frac_list_trim, is_canonical_poly, poly_gcd_ref,
                            poly_neg_ref, polyfrac_ref)

FIELDS = (2, 3, 5, None)


def coeff_ref(c, q):
    """One coefficient of int or Fraction c over Q or F_q, alone."""
    c = Fraction(c)
    return c if q is None else c.numerator * pow(c.denominator, -1, q) % q


def make_ref(cs, q) -> tuple:
    return tuple(frac_list_trim([coeff_ref(c, q) for c in cs]))


ints = st.lists(st.integers(-40, 40), max_size=7)


@st.composite
def fractions(draw, q):
    """Fractions whose denominators q does not divide."""
    den = draw(st.integers(1, 30).filter(lambda d: q is None or d % q))
    return Fraction(draw(st.integers(-40, 40)), den)


def coefficients(q):
    return st.lists(st.one_of(st.integers(-40, 40), fractions(q)), max_size=7)


def polys(q):
    return coefficients(q).map(lambda cs: Poly.make(cs, q))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS), ints)
def test_make_from_ints_equals_the_reference(q, cs):
    p = Poly.make(cs, q)
    assert is_canonical_poly(p) and p.coeffs == make_ref(cs, q)
    assert Poly.make((c for c in cs), q) == p


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(lambda q: st.tuples(st.just(q), coefficients(q))))
def test_make_from_fractions_and_a_generator_equals_the_reference(case):
    q, cs = case
    p = Poly.make(cs, q)
    assert is_canonical_poly(p) and p.coeffs == make_ref(cs, q)
    assert Poly.make((Fraction(c) for c in cs), q) == p


@pytest.mark.parametrize("q", [2, 3, 5])
def test_a_denominator_that_q_divides_is_refused(q):
    for cs in ([Fraction(1, q)], [1, Fraction(1, 2 * q), 7], [Fraction(2, q * q), 0]):
        with pytest.raises(ZeroDivisionError, match=f"not invertible mod {q}$"):
            Poly.make(cs, q)


def test_mon_refuses_a_coefficient_over_f2_with_the_same_text(tmp_path, capsys):
    path = tmp_path / "half.json"
    path.write_text('{"ring": {"kind": "poly-local", "q": 2}, "t": 2, '
                    '"matrix": [["1/2*x"]]}')
    assert main(["sigma", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: denominator 2 not invertible mod 2\n"


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(polys))
def test_negation_equals_the_reference(p):
    assert -p == poly_neg_ref(p) and is_canonical_poly(-p)
    assert -(-p) == p


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS).flatmap(
    lambda q: st.tuples(polys(q), polys(q).filter(bool))))
def test_polyfrac_make_is_monic_in_lowest_terms(pair):
    num, den = pair
    f = PolyFrac.make(num, den)
    assert f == polyfrac_ref(num, den)
    assert f.denominator.leading() == 1
    assert is_canonical_poly(f.numerator) and is_canonical_poly(f.denominator)
    if f.numerator:
        assert poly_gcd_ref(f.numerator, f.denominator).degree == 0
