"""Scalar arithmetic and the text grammar for both ring flavours."""

import ast
import operator
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import monocat
from monocat.errors import (DivisionLeavesRing, InfiniteResidueField,
                            ParametersTooLarge, ParseError)
from monocat.linalg import MatS
from monocat.rings import (INFINITY, MAX_INT_DIGITS, IntLocal, Poly, PolyFrac,
                           PolyLocal, RingCtx, _is_prime, _pseudo_divmod)
from oracle_helpers import is_canonical_poly, trial_division_is_prime

Z2 = RingCtx.int_local(2, 2)
Z3 = RingCtx.int_local(3, 3)
KX = RingCtx.poly_local(2)        # rationals as coefficients
F2X = RingCtx.poly_local(2, q=2)
F3X = RingCtx.poly_local(2, q=3)


def test_context_validation():
    with pytest.raises(ValueError):
        RingCtx.int_local(4, 2)
    with pytest.raises(ValueError):
        RingCtx.int_local(2, 0)
    with pytest.raises(ValueError):
        RingCtx.poly_local(2, q=6)
    with pytest.raises(ValueError):
        RingCtx.int_local(None, 2)


def test_int_valuation_basics():
    assert Z2.valuation(Fraction(12)) == 2
    assert Z2.valuation(Fraction(1, 2)) == -1
    assert Z2.valuation(Fraction(0)) is INFINITY
    assert Z3.valuation(Fraction(18)) == 2


def test_in_ring_and_units():
    assert Z2.in_ring(Fraction(1, 3))
    assert not Z2.in_ring(Fraction(1, 2))
    assert Z2.is_unit(Fraction(3))
    assert not Z2.is_unit(Fraction(2))
    assert not Z2.is_unit(Fraction(0))


def test_div_exact_guards():
    assert Z2.div_exact(Fraction(4), Fraction(2)) == 2
    with pytest.raises(DivisionLeavesRing):
        Z2.div_exact(Fraction(1), Fraction(2))
    # division by a unit never leaves the ring
    assert Z2.div_exact(Fraction(1), Fraction(3)) == Fraction(1, 3)


def test_reduce_mod_omega_int_inverse():
    # one third at p=2, t=2: the residue is the mod-4 inverse of 3
    expected = pow(3, -1, 4)
    assert expected == 3
    assert Z2.reduce_mod_omega(Fraction(1, 3)) == 3
    assert Z2.reduce_mod_omega(Fraction(-1)) == 3
    assert Z2.reduce_mod_omega(Fraction(5)) == 1


def test_reduce_then_lift_is_identity_on_residues():
    for r in Z2.residue_elements():
        assert Z2.reduce_mod_omega(Z2.lift(r)) == r


def test_poly_series_inverse_reduction():
    ctx = RingCtx.poly_local(3)
    # 1/(1+x) == 1 - x + x^2 modulo x^3
    r = ctx.reduce_mod_omega(PolyFrac.make(Poly.const(1, None), Poly.make([1, 1], None)))
    assert r == Poly.make([1, -1, 1], None)
    ctx2 = RingCtx.poly_local(3, q=2)
    r2 = ctx2.reduce_mod_omega(PolyFrac.make(Poly.const(1, 2), Poly.make([1, 1], 2)))
    assert r2 == Poly.make([1, 1, 1], 2)


def test_residue_counts():
    assert len(list(Z2.residue_elements())) == 4
    assert len(list(F2X.residue_elements())) == 4
    assert Z3.residue_field_size == 3
    assert Z3.residue_modulus == 27
    with pytest.raises(InfiniteResidueField):
        list(KX.residue_elements())


def test_residue_ring_axioms_small():
    elems = list(F2X.residue_elements())
    for a in elems:
        assert F2X.residue_add(a, -a) == F2X.residue_zero()
        assert F2X.residue_mul(a, F2X.reduce_mod_omega(F2X.one())) == a


def test_parse_int_local():
    assert Z2.parse_scalar("5") == 5
    assert Z2.parse_scalar("-7/3") == Fraction(-7, 3)
    assert Z2.parse_scalar(" 2 + 3 ") == 5
    with pytest.raises(ParseError):
        Z2.parse_scalar("x")
    with pytest.raises(ParseError):
        Z2.parse_scalar("1/2")  # not in S at p = 2


def test_parse_poly_local():
    a = KX.parse_scalar("3/4*x^2 - x + 1")
    assert isinstance(a, PolyFrac)
    assert a.numerator == Poly.make([1, -1, Fraction(3, 4)], None)
    b = KX.parse_scalar("(1+x)/(1 - x)")
    assert b == PolyFrac.make(Poly.make([1, 1], None), Poly.make([1, -1], None))
    assert b.denominator.coeffs[-1] == 1  # denominators are kept monic
    with pytest.raises(ParseError):
        KX.parse_scalar("(1+x)/x")  # denominator in the maximal ideal
    c = F2X.parse_scalar("x^2 + x + 1")
    assert c.numerator == Poly.make([1, 1, 1], 2)


def test_is_prime_agrees_with_trial_division():
    assert all(_is_prime(n) == trial_division_is_prime(n) for n in range(10 ** 5))


def test_is_prime_large_inputs():
    assert _is_prime(10 ** 18 + 3)
    assert _is_prime(2 ** 61 - 1)
    # strong pseudoprimes to every prime base up to 31 and up to 37
    assert not _is_prime(3825123056546413051)
    assert not _is_prime(318665857834031151167461)
    with pytest.raises(ValueError):
        _is_prime(3317044064679887385961981)
    with pytest.raises(ValueError):
        RingCtx.int_local(10 ** 30 + 57, 1)


def test_format_parse_round_trip_poly():
    samples = ["0", "1", "x", "x^2", "2*x^2 + x", "(x + 1)/(x + 2)", "-x + 3",
               "1/2 + x", "(1/2 + x)", "(-1/2 + x)/(1 + x)",
               "(1/2)/(8 + 4*x - 10*x^2)", "1/2", "-7/3"]
    for text in samples:
        a = KX.parse_scalar(text)
        assert KX.parse_scalar(KX.format_scalar(a)) == a
    # "1/2 + x" is the quotient 1/(2 + x); the polynomial prints in parentheses
    half_plus_x = KX.lift(Poly.make([Fraction(1, 2), 1]))
    assert KX.parse_scalar("1/2 + x") != half_plus_x
    assert KX.format_scalar(half_plus_x) == "(1/2 + x)"
    assert KX.parse_scalar("(1/2 + x)") == half_plus_x
    assert KX.format_scalar(KX.parse_scalar("1/2")) == "1/2"


def test_format_parse_round_trip_int():
    for text in ["0", "-3", "7/5", "12"]:
        a = Z2.parse_scalar(text)
        assert Z2.parse_scalar(Z2.format_scalar(a)) == a


@settings(max_examples=300, deadline=1000)
@given(st.text(alphabet="0123456789x*^+-/() ²٣", max_size=24))
def test_parse_scalar_returns_a_ring_element_or_a_parse_error(text):
    # "²" and "٣" are non-ASCII characters that str.isdigit accepts
    for ctx in (Z2, F3X, KX):
        try:
            value = ctx.parse_scalar(text)
        except ParseError:
            continue
        assert ctx.in_ring(value)


@given(st.integers(-200, 200), st.integers(-200, 200))
def test_int_valuation_is_additive(a, b):
    fa, fb = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        assert Z2.valuation(fa * fb) is INFINITY
    else:
        assert Z2.valuation(fa * fb) == Z2.valuation(fa) + Z2.valuation(fb)


@given(st.integers(-200, 200), st.integers(-200, 200))
def test_int_valuation_ultrametric(a, b):
    fa, fb = Fraction(a), Fraction(b)
    va, vb, vs = Z3.valuation(fa), Z3.valuation(fb), Z3.valuation(fa + fb)
    assert vs >= min(va, vb)


@given(st.lists(st.integers(-5, 5), max_size=4), st.lists(st.integers(-5, 5), max_size=4))
def test_poly_mul_matches_int_substitution(cs, ds):
    # evaluating at an integer point is a ring morphism
    f = Poly.make(cs, None)
    g = Poly.make(ds, None)
    x0 = 7

    def ev(p):
        return sum(c * x0 ** i for i, c in enumerate(p.coeffs))

    assert ev(f * g) == ev(f) * ev(g)
    assert ev(f + g) == ev(f) + ev(g)


def test_poly_divmod():
    # pseudo-division on Z[x], the division of Q: (s, quo, rem) with
    # s*a = quo*b + rem; x^2 + 2 = (x - 1)(x + 1) + 3
    assert _pseudo_divmod([2, 0, 1], [1, 1]) == (1, [-1, 1], [3])
    # lc(b) = 2 forces s = 4: 4(x^2 + 2) = (2x - 1)(2x + 1) + 9
    assert _pseudo_divmod([2, 0, 1], [1, 2]) == (4, [-1, 2], [9])


def test_polyfrac_normalization():
    a = PolyFrac.make(Poly.make([0, 2], None), Poly.make([2], None))
    assert a.denominator == Poly.const(1, None)
    assert a.numerator == Poly.make([0, 1], None)
    z = PolyFrac.make(Poly.make([], None), Poly.make([1, 5], None))
    assert not z
    assert z.denominator == Poly.const(1, None)


def test_format_refuses_integers_longer_than_the_parser_reads():
    edge = 10 ** MAX_INT_DIGITS - 1  # the longest integer the parser reads
    assert Z2.parse_scalar(Z2.format_scalar(Fraction(edge, 3))) == Fraction(edge, 3)
    coeff = Fraction(1, edge)
    for c in (coeff, -coeff):
        text = KX.format_scalar(KX.lift(Poly.make([0, c], None)))
        assert len(text) > MAX_INT_DIGITS
    for c in (Fraction(edge + 1), Fraction(1, edge + 1)):
        with pytest.raises(ParametersTooLarge):
            Z2.format_scalar(c)
        with pytest.raises(ParametersTooLarge):
            KX.format_scalar(KX.lift(Poly.make([c, 1], None)))
        with pytest.raises(ParametersTooLarge):
            KX.format_scalar(KX.lift(Poly.make([0, -c], None)))


# one of each: Z_(2), Z_(3), F_2[x]_(x), F_3[x]_(x), Q[x]_(x)
SPLIT_RINGS = [RingCtx.int_local(2, 3), RingCtx.int_local(3, 2),
               RingCtx.poly_local(3, q=2), RingCtx.poly_local(2, q=3),
               RingCtx.poly_local(2)]


def ring_id(ctx):
    field = ctx.residue_field_size if ctx.residue_modulus else "Q"
    return f"{ctx.kind}-{field}-t{ctx.t}"


JUXTAPOSED = [("3x", "3*x"), ("2x^2", "2*x^2"), ("1/2x", "1/2*x")]


@pytest.mark.parametrize("ctx", [RingCtx.poly_local(2, q=2), RingCtx.poly_local(2, q=3),
                                 RingCtx.poly_local(2)], ids=ring_id)
@pytest.mark.parametrize("texts", JUXTAPOSED, ids="=".join)
def test_juxtaposed_coefficient_reads_as_a_product(ctx, texts):
    """A coefficient written next to x means coefficient times x, as the
    grammar's '*'? says; where the coefficient is not in k (1/2 over F_2)
    both spellings fail alike."""
    def read(text):
        try:
            return ctx.parse_scalar(text)
        except ParseError as exc:
            return f"ParseError: {exc}"

    juxtaposed, starred = texts
    assert read(juxtaposed) == read(starred)
    assert ctx.parse_scalar("3x") == ctx.from_int(3) * ctx.pi()


@pytest.mark.parametrize("ctx", SPLIT_RINGS, ids=ring_id)
def test_reduce_inverts_lift_and_pi_powers_have_their_valuation(ctx):
    assert isinstance(ctx, IntLocal if ctx.kind == "int-local" else PolyLocal)
    if ctx.residue_modulus is not None:
        residues = list(ctx.residue_elements())
        assert len(residues) == ctx.residue_modulus
        for r in residues:
            assert ctx.reduce_mod_omega(ctx.lift(r)) == r
    for k in range(8):
        assert ctx.valuation(ctx.pi_pow(k)) == k


@pytest.mark.parametrize("ctx", SPLIT_RINGS, ids=ring_id)
def test_in_ring_and_is_unit_follow_the_denominator(ctx):
    parts = [ctx.one(), ctx.pi(), ctx.pi_pow(2), ctx.one() + ctx.pi(),
             ctx.from_int(5) + ctx.pi_pow(2), ctx.from_int(-7)]
    for num in [ctx.zero()] + parts:
        for den in parts:
            a = num / den
            v_num = ctx.valuation(ctx.lift(a.numerator))
            v_den = ctx.valuation(ctx.lift(a.denominator))
            assert ctx.in_ring(a) == (v_den == 0)
            assert ctx.is_unit(a) == (v_num == 0 and v_den == 0)


# the methods whose spans the benchmark reports
TRACED = ("valuation", "div_exact", "residue_add", "residue_mul",
          "residue_truncate", "reduce_mod_omega", "parse_scalar",
          "format_scalar")


def test_ring_subclasses_override_no_public_method():
    # a benchmark tracer wraps the methods in vars(RingCtx); an override
    # would leave its span at 0 calls without any error
    assert set(TRACED) <= set(vars(RingCtx))
    public = {name for name in vars(RingCtx) if not name.startswith("_")}
    assert set(RingCtx.__subclasses__()) == {IntLocal, PolyLocal}
    for cls in (IntLocal, PolyLocal):
        assert public.isdisjoint(vars(cls)), cls


def test_ring_kind_is_read_only_by_the_json_reader_and_writer():
    src = Path(monocat.__file__).resolve().parent
    reads = set()
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if any(isinstance(node, ast.Attribute) and node.attr == "kind"
                   for node in ast.walk(top)):
                reads.add((path.name, getattr(top, "name", None)))
    assert reads <= {("cli.py", "_ring_json"), ("cli.py", "_context_from")}


@pytest.mark.parametrize("ctx", SPLIT_RINGS, ids=ring_id)
def test_one_is_built_once(ctx):
    assert ctx.one() is ctx.one()
    assert ctx.one() == ctx.from_int(1)


# elements of S in every ring of SPLIT_RINGS; the second list only over k[x]
TEXTS = ["0", "1", "-1", "6", "-4/5", "2/7"]
POLY_TEXTS = ["x", "x^2 + 1", "(1 + x)/(1 - x)", "(2 + x)/(1 + x^2)",
              "(x - x^2)/(1 + 2*x)"]
OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


@st.composite
def built_values(draw):
    """A ring and scalars built by every route that makes one."""
    ctx = draw(st.sampled_from(SPLIT_RINGS))
    texts = TEXTS + (POLY_TEXTS if isinstance(ctx, PolyLocal) else [])
    pool = [ctx.parse_scalar(draw(st.sampled_from(texts))),
            ctx.from_int(draw(st.integers(-9, 9))),
            ctx.pi_pow(draw(st.integers(0, 3)))]
    pool.append(ctx.lift(ctx.reduce_mod_omega(pool[0])))
    for step in draw(st.lists(st.sampled_from("+-*/nm"), max_size=4)):
        a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        if step == "/":
            unit = ctx.one() + ctx.pi() * b  # a unit for every b in S
            pool += [a / unit, a / unit * unit]
        elif step == "n":
            pool.append(-a)
        elif step == "m":  # entries of a product go through _dot
            pool += (MatS(ctx, 1, 2, (a, b))
                     @ MatS(ctx, 2, 2, (b, a, a, ctx.one()))).entries
        else:
            pool.append(OPS[step](a, b))
    return ctx, pool


@settings(deadline=None)
@given(built_values())
def test_field_equality_is_value_equality(built):
    # the contract every == on scalars, residues and matrices relies on
    ctx, pool = built
    for a in pool:
        if isinstance(a, PolyFrac):
            num, den = a.numerator, a.denominator
            one = Poly.const(1, num.q)
            assert den.coeffs[-1] == 1 and num.gcd(den) == one
            assert num or den == one
            assert is_canonical_poly(num) and is_canonical_poly(den)
    residues = [ctx.reduce_mod_omega(a) for a in pool]
    assert all(is_canonical_poly(r) for r in residues if isinstance(r, Poly))
    for a, b in product(pool, repeat=2):
        assert (a == b) == (not (a - b))
        assert a != b or hash(a) == hash(b)
    for r, s in product(residues, repeat=2):
        assert (r == s) == (not ctx.residue_add(r, -s))
        assert r != s or hash(r) == hash(s)


FORWARDERS = {"is_zero", "residue_is_zero", "residue_one", "residue_neg"}


def zero_tests_of_differences(tree) -> set:
    """Lines of each ``.is_zero()`` whose receiver is a subtraction, or a
    name its function assigns a subtraction."""
    def is_sub(node):
        return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
    lines = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        diffs = {target.id for node in ast.walk(fn)
                 if isinstance(node, ast.Assign) and is_sub(node.value)
                 for target in node.targets if isinstance(target, ast.Name)}
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "is_zero"):
                recv = node.func.value
                if is_sub(recv) or isinstance(recv, ast.Name) and recv.id in diffs:
                    lines.add(node.lineno)
    return lines


def test_zero_test_scan_sees_both_shapes():
    tree = ast.parse("def f(a, b):\n"
                     "    d = a - b\n"
                     "    x = d.is_zero()\n"
                     "    y = (a - b).is_zero()\n"
                     "    return a.is_zero()\n")
    assert zero_tests_of_differences(tree) == {3, 4}


def test_exact_values_compare_with_operators():
    # == decides equality and truthiness decides zero: no subtract-then-test
    # and no RingCtx forwarder for either
    src = Path(monocat.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        found += [(path.name, line) for line in sorted(zero_tests_of_differences(tree))]
        found += [(path.name, node.name) for cls in tree.body
                  if isinstance(cls, ast.ClassDef) and cls.name == "RingCtx"
                  for node in cls.body
                  if isinstance(node, ast.FunctionDef) and node.name in FORWARDERS]
    assert found == []


def test_library_invariants_raise_the_named_error():
    # a failed postcondition is an InternalInvariantError, which the CLI
    # reports as an internal error, never a bare AssertionError
    src = Path(monocat.__file__).resolve().parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            exc = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                found.append((path.name, node.lineno))
    assert found == []
