"""Exact arithmetic in a discrete valuation ring S and its quotient R = S/(pi^t).

A :class:`RingCtx` fixes S with a uniformizer pi, the exponent t >= 1 and
hence omega = pi^t and the residue chain ring R = S/(omega).  Each S is a
subclass:

* :class:`IntLocal`  -- the integers localized at a prime p; pi = p.
  Scalars are :class:`fractions.Fraction` values, residues ints in [0, p^t).
* :class:`PolyLocal` -- k[x] localized at (x), k the rationals or a prime
  field F_q; pi = x.  Scalars are :class:`PolyFrac` values whose
  denominator has nonzero constant term, residues :class:`Poly` values of
  degree < t.

Shared protocol: a scalar has a ``numerator`` and a ``denominator``, both
ints or both Polys; a residue is an int or a Poly, and lifts to itself over
1; scalars and residues add, subtract and multiply.  So RingCtx writes
every method whose body both rings share once.  A subclass supplies
``lift``, ``from_int``, ``residue_elements`` and ``format_residue``, and
private primitives on an int or a Poly: ``_valuation``, ``_mod``
(reduction modulo pi^e), ``_pi_quotient`` (exact division by pi^k),
``_inverse_den`` (of a unit, such as a denominator, modulo pi^e),
``_pi_pow`` (pi^k as an int or a Poly, which ``pi_pow`` lifts),
``_normalize`` (lowest terms), ``_cancel`` (a and b divided by their
gcd, for the Smith form's lines of numerators over one denominator each),
``_scalar_text`` and ``_term`` (the text form), and the seeded draws
``_random_unit`` (a unit numerator, an int or a Poly, for
``linalg.random_unimodular``'s lines) and ``_random_scalar``.  It
overrides no method of RingCtx, so a wrapper on a RingCtx method sees
every call of it.  The cleared form of a matrix over Z_(p), integer
numerators over one denominator, is built in ``linalg``, which owns that
format.

Normalization policy.  Every scalar, residue and Poly is stored in
canonical form, so field equality is value equality: exact values compare
with ``==``, and a value is falsy exactly at zero.  A :class:`Poly` holds
integer coefficients ``ints`` over one denominator ``den``.  Over F_q the
ints lie in [0, q) and den is 1.  Over Q den > 0, gcd(den, *ints) = 1 and
no trailing zero is stored.  Each operation works on the ints over den and
hands its result to ``_canon``, the one place that reduces: over F_q it
takes the ints mod q, times the inverse of den mod q when den is not 1;
over Q it takes one ``math.gcd(den, *ints)``, never a gcd per coefficient.
So ``make``, ``+``, negation, ``scale`` and ``truncate`` have one body for
both fields, and Poly tests the field only where the algorithm differs: in
``_canon``, the coefficient view ``_coeff``, the packed product, the gcd
and the exact quotient of ``_cancel``.  Q alone divides with
``_pseudo_divmod`` on integer lists, and its gcd is a remainder sequence
that keeps the primitive part (``_primitive``) of each member on Z[x],
made monic once at the end.  Over F_q three kernels on integer lists do
the work, one product and two division loops.  A product of len(a) *
len(b) >= ``PACKED_MIN`` coefficient products packs each operand into one
int (Kronecker substitution, one slot per coefficient, wider than
min(len) * (q - 1)^2 so no slot carries) and multiplies in C.  The gcd
(``_fq_gcd``) is Euclid in place, each remainder made monic once
(``_monic``), and lowest terms divide by the monic gcd with a loop that
forms the quotient only (``_fq_quotient``).  A :class:`PolyFrac` or
Fraction is brought to lowest terms once per result: a matrix product
accumulates each entry as an unreduced numerator over a denominator and
normalizes it once (over Z_(p) the whole matrix shares one denominator and
one gcd, and its Fractions are built when read; an entry of one nonzero
term is that term's product), and a comparison of products
(``linalg.sums_equal``) normalizes none.  A PolyFrac product or quotient
of two fractions in lowest terms cancels across: gcd(an * bn, ad * bd) =
gcd(an, bd) * gcd(bn, ad), two small gcds in place of one large one, each
skipped when a side is constant, and the denominator is then made monic.
``+`` still takes one full gcd.  Multiplying by the constant 1 returns the
other factor.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from itertools import product
from typing import ClassVar, Iterator, Union

from .errors import (
    ContextMismatch,
    DivisionLeavesRing,
    InfiniteResidueField,
    ParametersTooLarge,
    ParseError,
)

INFINITY = math.inf

Scalar = Union[Fraction, "PolyFrac"]
Residue = Union[int, "Poly"]


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin.  The prime bases up to 41 decide every n
    below 3317044064679887385961981, the least strong pseudoprime to all of
    them (up to 37 would stop at 318665857834031151167461, a product of two
    primes); larger n raise ValueError."""
    if n >= 3317044064679887385961981:
        raise ValueError(f"cannot decide whether {n} is prime: too large")
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in bases:
        x = pow(b, d, n)
        if x == 1:
            continue
        for _ in range(r):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# polynomials over Q or F_q


class Poly:
    """Dense univariate polynomial over Q (``q is None``) or over F_q.

    ``ints`` lists integer coefficients by ascending degree, and the value
    is ints / den.  Over F_q the ints lie in [0, q) and ``den`` is 1.  Over
    Q (the layout of FLINT's ``fmpq_poly``) ``den`` > 0 and
    gcd(den, *ints) = 1.  No trailing zero is stored, so zero is
    ``((), 1)``, every value has one form, and ``==`` and ``hash`` compare
    the fields.  Every result is built by ``_canon`` from integers over a
    denominator, on either field.  ``coeffs`` is a read-only view, with
    Fraction coefficients over Q.  A Poly is never changed after it is
    built.
    """

    __slots__ = ("ints", "den", "q")

    @staticmethod
    def make(coeffs, q: int | None = None) -> "Poly":
        """The Poly of int or Fraction coefficients, by ascending degree:
        their numerators over the lcm of their denominators."""
        cs = list(coeffs)
        den = math.lcm(*[c.denominator for c in cs])
        return _canon([c.numerator * (den // c.denominator) for c in cs], q, den)

    @staticmethod
    def const(c, q: int | None = None) -> "Poly":
        return Poly.make([c], q)

    @staticmethod
    def x_power(k: int, q: int | None = None) -> "Poly":
        return Poly.make([0] * k + [1], q)

    @property
    def coeffs(self) -> tuple:
        return tuple(map(self._coeff, self.ints))

    def __eq__(self, other):
        if type(other) is not Poly:
            return NotImplemented
        return self.ints == other.ints and self.den == other.den and self.q == other.q

    def __hash__(self) -> int:
        return hash((self.ints, self.den, self.q))

    def __repr__(self) -> str:
        return f"Poly({self.coeffs!r}, q={self.q!r})"

    def __bool__(self) -> bool:
        return bool(self.ints)

    @property
    def degree(self) -> int:
        return len(self.ints) - 1

    def _coeff(self, c: int):
        return c if self.q is not None else Fraction(c, self.den)

    def constant_term(self):
        return self._coeff(self.ints[0] if self.ints else 0)

    def leading(self):
        if not self.ints:
            raise ZeroDivisionError("leading coefficient of zero polynomial")
        return self._coeff(self.ints[-1])

    def _check(self, other: "Poly"):
        if self.q != other.q:
            raise ContextMismatch("polynomials over different coefficient fields")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        a, b, den = self.ints, other.ints, self.den
        if den != other.den:
            a, b = [x * other.den for x in a], [y * den for y in b]
            den *= other.den
        if len(a) < len(b):
            a, b = b, a
        return _canon([x + y for x, y in zip(a, b)] + list(a[len(b):]), self.q, den)

    def __neg__(self) -> "Poly":
        return _canon([-c for c in self.ints], self.q, self.den)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        a, b = self.ints, other.ints
        # the constant 1 (not 1/2 over Q) returns the other, canonical, factor
        if a == (1,) and self.den == 1:
            return other
        if b == (1,) and other.den == 1:
            return self
        if not a or not b:
            return _poly((), 1, self.q)
        if self.q is not None and len(a) * len(b) >= PACKED_MIN:
            return _canon(_packed_mul(a, b, self.q), self.q)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _canon(out, self.q, self.den * other.den)

    def scale(self, n: int, d: int = 1) -> "Poly":
        """self * n / d for integers n and d, d nonzero (over F_q, prime to
        q): the ints times n over den * d, which ``_canon`` brings to
        canonical form."""
        return _canon([a * n for a in self.ints], self.q, self.den * d)

    def truncate(self, k: int) -> "Poly":
        """Reduce modulo x^k."""
        return _canon(list(self.ints[:k]), self.q, self.den)

    def gcd(self, other: "Poly") -> "Poly":
        """Monic greatest common divisor: over F_q Euclid in place on the
        integer lists (``_fq_gcd``), over Q a remainder sequence that keeps
        the primitive part of each pseudo-remainder on Z[x]."""
        self._check(other)
        q = self.q
        if q is not None:
            return _poly(tuple(_fq_gcd(self.ints, other.ints, q)), 1, q)
        a, b = _primitive(self.ints), _primitive(other.ints)
        while b:
            a, b = b, _primitive(_pseudo_divmod(a, b)[2])
        return _canon(a, None, a[-1] if a else 1)


_new = object.__new__


def _poly(ints: tuple, den: int, q: int | None) -> Poly:
    """The Poly with these fields, which must already be canonical."""
    p = _new(Poly)
    p.ints, p.den, p.q = ints, den, q
    return p


@cache
def _unit_poly(q: int | None) -> Poly:
    """The constant polynomial 1 over Q or F_q, built once per q."""
    return Poly.const(1, q)


def _canon(cs: list, q: int | None, den: int = 1) -> Poly:
    """The Poly of the value cs / den, for integers cs over a nonzero
    integer den, and the one place a value over F_q is reduced: there each
    int times the inverse of den mod q is taken into [0, q), and den
    becomes 1 (ZeroDivisionError when q divides den).  Over Q the value is
    brought to lowest terms with one gcd.  Trailing zeros are dropped."""
    if q is not None:
        if den == 1:
            cs = [c % q for c in cs]
        elif den % q:
            inv, den = pow(den, -1, q), 1
            cs = [c * inv % q for c in cs]
        else:
            raise ZeroDivisionError(f"denominator {den} not invertible mod {q}")
    while cs and not cs[-1]:
        cs.pop()
    if den != 1:
        if den < 0:
            cs, den = [-c for c in cs], -den
        g = math.gcd(den, *cs)
        if g != 1:
            cs, den = [c // g for c in cs], den // g
    return _poly(tuple(cs), den, q)


def _primitive(cs) -> list:
    """The primitive part of integers cs with no trailing zero on Z[x]: cs
    divided by its content gcd(*cs)."""
    g = math.gcd(*cs)
    return [c // g for c in cs] if g > 1 else list(cs)


def _monic(cs, q: int) -> list:
    """The monic associate over F_q of integers cs in [0, q) with no
    trailing zero."""
    inv = pow(cs[-1], -1, q) if cs else 1
    return [c * inv % q for c in cs] if inv != 1 else list(cs)


# len(a) * len(b) from which a product over F_q packs its operands
PACKED_MIN = 24


def _packed_mul(a, b, q: int):
    """The coefficients of a * b, unreduced, for integer sequences in
    [0, q): Kronecker substitution packs each operand into one int, one
    slot per coefficient, and Python's C multiplication does the rest.  A
    slot of the product holds at most min(len) * (q - 1)^2, so it never
    carries into the next when the slot exceeds that: a byte when it fits,
    else as many bits as it needs, packed by shifts."""
    n, top = len(a) + len(b) - 1, min(len(a), len(b)) * (q - 1) ** 2
    if top < 1 << 8:
        prod = int.from_bytes(bytes(a), "little") * int.from_bytes(bytes(b), "little")
        return list(prod.to_bytes(n, "little"))
    w = top.bit_length()
    pa, pb = (sum(c << w * i for i, c in enumerate(cs)) for cs in (a, b))
    prod, mask = pa * pb, (1 << w) - 1
    return [prod >> w * i & mask for i in range(n)]


def _fq_gcd(a, b, q: int) -> list:
    """Monic gcd of two reduced integer sequences over F_q: Euclid in
    place on lists, each remainder made monic once."""
    a, b = list(a), _monic(b, q)
    while b:
        db = len(b) - 1
        for i in range(len(a) - 1 - db, -1, -1):
            c = a[i + db] % q
            if c:
                for j in range(db):
                    a[i + j] -= c * b[j]
        a = [c % q for c in a[:db]]
        while a and not a[-1]:
            a.pop()
        a, b = b, _monic(a, q)
    return _monic(a, q)


def _fq_quotient(a, b, q: int) -> tuple:
    """a / b over F_q for reduced a and monic b dividing it exactly: only
    the coefficients that later steps read are updated, so no remainder is
    formed."""
    r, db = list(a), len(b) - 1
    quo = [0] * (len(r) - db)
    for i in range(len(quo) - 1, -1, -1):
        c = quo[i] = r[i + db] % q
        if c:
            for j in range(max(0, db - i), db):
                r[i + j] -= c * b[j]
    return tuple(quo)


def _pseudo_divmod(a, b) -> tuple[int, list, list]:
    """Pseudo-division on Z[x], the division of Q alone: (s, quo, rem)
    with s*a = quo*b + rem, s > 0 and deg rem < deg b, for integer lists a
    and b (b nonzero), rem with no trailing zero.  F_q divides with
    ``_fq_gcd``'s remainder loop and ``_fq_quotient``.

    A step scales the partial remainder only when lc(b) does not divide its
    leading coefficient, and then by the least factor that makes it do so;
    so s = 1 whenever b divides a in Z[x]."""
    rem, dq, lead = list(a), len(b) - 1, b[-1]
    quo, s = [0] * max(0, len(rem) - dq), 1
    for i in range(len(rem) - dq - 1, -1, -1):
        c = rem[i + dq]
        if not c:
            continue
        if c % lead:
            m = abs(lead) // math.gcd(lead, c)
            s, c = s * m, c * m
            for k in range(i + dq):
                rem[k] *= m
            for k in range(i + 1, len(quo)):
                quo[k] *= m
        c //= lead
        quo[i] = c
        for j in range(dq):
            rem[i + j] -= c * b[j]
    rem = rem[:dq]
    while rem and not rem[-1]:
        rem.pop()
    return s, quo, rem


@dataclass(frozen=True)
class PolyFrac:
    """Quotient of polynomials in lowest terms with monic denominator.

    Elements of the local ring k[x]_(x) have a denominator with nonzero
    constant term; general fraction-field elements (needed transiently by
    matrix inversion) do not.  The field names are those of Fraction.
    """

    numerator: Poly
    denominator: Poly

    @staticmethod
    def make(num: Poly, den: Poly) -> "PolyFrac":
        if not den:
            raise ZeroDivisionError("polynomial fraction with zero denominator")
        num._check(den)
        if not num:
            return PolyFrac(num, _unit_poly(num.q))
        if den.ints == (1,) and den.den == 1:
            return PolyFrac(num, den)
        return _monic_den(*_cancel(num, den))

    def __bool__(self) -> bool:
        return bool(self.numerator.ints)

    def __add__(self, other: "PolyFrac") -> "PolyFrac":
        return PolyFrac.make(self.numerator * other.denominator
                             + other.numerator * self.denominator,
                             self.denominator * other.denominator)

    def __sub__(self, other: "PolyFrac") -> "PolyFrac":
        return self + (-other)

    def __neg__(self) -> "PolyFrac":
        return PolyFrac(-self.numerator, self.denominator)

    def __mul__(self, other: "PolyFrac") -> "PolyFrac":
        return _product(self.numerator, self.denominator,
                        other.numerator, other.denominator)

    def __truediv__(self, other: "PolyFrac") -> "PolyFrac":
        if not other:
            raise ZeroDivisionError("division by zero polynomial fraction")
        return _product(self.numerator, self.denominator,
                        other.denominator, other.numerator)


def _cancel(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """a and b divided by their monic gcd, both scaled alike; a constant
    on either side has gcd 1 with the other, and no gcd is taken."""
    if len(a.ints) > 1 and len(b.ints) > 1:
        g = a.gcd(b)
        if len(g.ints) > 1:
            q = a.q
            if q is not None:
                return tuple(_poly(_fq_quotient(p.ints, g.ints, q), 1, q) for p in (a, b))
            # g divides both, so no pseudo-scaling step fires (s = 1);
            # dividing by g.ints alone scales both quotients alike
            return tuple(_canon(_pseudo_divmod(p.ints, g.ints)[1], None, p.den)
                         for p in (a, b))
    return a, b


def _monic_den(num: Poly, den: Poly) -> PolyFrac:
    """num / den, already in lowest terms, over a monic denominator."""
    lead = den.ints[-1]
    if lead == den.den:
        return PolyFrac(num, den)
    return PolyFrac(num.scale(den.den, lead), den.scale(den.den, lead))


def _product(an: Poly, ad: Poly, bn: Poly, bd: Poly) -> PolyFrac:
    """(an / ad) * (bn / bd) for two fractions in lowest terms, in lowest
    terms: gcd(an * bn, ad * bd) = gcd(an, bd) * gcd(bn, ad), two small
    gcds in place of one large one (Knuth, TAOCP 4.5.1)."""
    an._check(bn)
    if not an or not bn:
        return PolyFrac(_poly((), 1, an.q), _unit_poly(an.q))
    an, bd = _cancel(an, bd)
    bn, ad = _cancel(bn, ad)
    return _monic_den(an * bn, ad * bd)


# ---------------------------------------------------------------------------
# ring contexts


@dataclass(frozen=True)
class RingCtx:
    """A discrete valuation ring S together with the exponent t.

    Everything downstream (matrices, objects, morphisms) carries one of
    these; mixing contexts raises ContextMismatch.  Instances are immutable
    value objects: two contexts are interchangeable iff they compare equal.
    Build one with :meth:`int_local` or :meth:`poly_local`.
    """

    t: int
    kind: ClassVar[str]  # the ring's name in object files
    _q: ClassVar[property]  # |S/(pi)|: a prime, or None for the rationals

    def __post_init__(self):
        if self.t < 1:
            raise ValueError("t must be at least 1")
        if self._q is not None and not _is_prime(self._q):
            raise ValueError(f"the residue field size {self._q} is not a prime")

    @staticmethod
    def int_local(p: int, t: int) -> "IntLocal":
        return IntLocal(t, p)

    @staticmethod
    def poly_local(t: int, q: int | None = None) -> "PolyLocal":
        return PolyLocal(t, q)

    # -- scalar construction ------------------------------------------------

    @cached_property
    def _zero(self) -> Scalar:
        return self.from_int(0)

    def zero(self) -> Scalar:
        return self._zero

    @cached_property
    def _one(self) -> Scalar:
        return self.from_int(1)

    def one(self) -> Scalar:
        return self._one

    def pi(self) -> Scalar:
        return self.pi_pow(1)

    def pi_pow(self, k: int) -> Scalar:
        return self.lift(self._pi_num(k))

    def _pi_num(self, k: int):
        """pi^k as a numerator, an int or a Poly: the entry that matrices
        built on numerators (``linalg._from_lines``) read."""
        if k < 0:
            raise ValueError("pi_pow takes a nonnegative exponent")
        return self._pi_pow(k)

    @cached_property
    def _omega(self) -> Scalar:
        return self.pi_pow(self.t)

    def omega(self) -> Scalar:
        return self._omega

    # -- scalar predicates and arithmetic ------------------------------------

    def valuation(self, a: Scalar):
        """pi-adic valuation; INFINITY for zero.  Defined on all of Frac(S),
        so the result can be negative for elements outside S."""
        if not a:
            return INFINITY
        return self._valuation(a.numerator) - self._valuation(a.denominator)

    def in_ring(self, a: Scalar) -> bool:
        """Membership in S inside its fraction field."""
        return self._valuation(a.denominator) == 0

    def is_unit(self, a: Scalar) -> bool:
        return self.valuation(a) == 0 and self.in_ring(a)

    def div_exact(self, a: Scalar, b: Scalar) -> Scalar:
        """Quotient a/b checked to lie in S; raises DivisionLeavesRing."""
        if not b:
            raise ZeroDivisionError("exact division by zero")
        q = a / b
        if not self.in_ring(q):
            raise DivisionLeavesRing(
                f"{self.format_scalar(a)} / {self.format_scalar(b)} leaves the ring")
        return q

    # -- residues: R = S/(omega) ---------------------------------------------

    @property
    def residue_modulus(self) -> int | None:
        """|R| when finite (p^t or q^t), else None."""
        return None if self._q is None else self._q ** self.t

    @property
    def residue_field_size(self) -> int:
        if self._q is None:
            raise InfiniteResidueField("residue field is the rationals")
        return self._q

    def reduce_mod_omega(self, a: Scalar) -> Residue:
        """Canonical representative of a in R; a must lie in S."""
        if not self.in_ring(a):
            raise DivisionLeavesRing(
                f"{self.format_scalar(a)} is not in the local ring")
        return self._reduce(a, self.t)

    def _reduce(self, a: Scalar, e: int) -> Residue:
        """Canonical representative of a in S/(pi^e), unchecked: a in S."""
        return self._mod(a.numerator * self._inverse_den(a.denominator, e), e)

    def residue_zero(self) -> Residue:
        return self._zero.numerator

    def residue_add(self, r1: Residue, r2: Residue) -> Residue:
        return self._mod(r1 + r2, self.t)

    def residue_mul(self, r1: Residue, r2: Residue) -> Residue:
        return self._mod(r1 * r2, self.t)

    def residue_truncate(self, r: Residue, e: int) -> Residue:
        """Canonical representative modulo pi^e (0 <= e <= t)."""
        return self._mod(r, e)

    def residue_valuation(self, r: Residue):
        """Valuation of the canonical lift; INFINITY for the zero residue."""
        return self._valuation(r)

    # -- text form ------------------------------------------------------------

    def parse_scalar(self, text: str) -> Scalar:
        """Parse the scalar syntax used by matrix files.

        Integers, fractions a/b, and (for poly-local rings) polynomial sums
        of c, c*x^k, x^k, x; one top-level quotient of two such sums is
        accepted so every element of S has a readable form.  The result is
        checked to lie in S.
        """
        try:
            value = _ScalarParser(text, self).parse()
        except RecursionError:
            raise ParseError("scalar nests parentheses too deeply") from None
        if not self.in_ring(value):
            raise ParseError(f"{text!r} is not an element of the local ring")
        return value

    def format_scalar(self, a: Scalar) -> str:
        return self._scalar_text(a)


@dataclass(frozen=True)
class IntLocal(RingCtx):
    """Z_(p): fractions a/b with b prime to p, pi = p."""

    p: int
    kind = "int-local"
    _q = property(lambda self: self.p)

    def __post_init__(self):
        if self.p is None:  # None would read as the rationals' residue field
            raise ValueError("int-local ring needs a prime p")
        super().__post_init__()

    def _valuation(self, n: int):
        if n == 0:
            return INFINITY
        v = 0
        while n % self.p == 0:
            n //= self.p
            v += 1
        return v

    def _mod(self, n: int, e: int) -> int:
        return n % self.p ** e

    def _pi_quotient(self, n: int, k: int) -> int:
        return n // self.p ** k

    def _inverse_den(self, d: int, e: int) -> int:
        return pow(d, -1, self.p ** e)

    def lift(self, n: int) -> Fraction:
        """The canonical representative of a residue as an element of S."""
        return Fraction(n)

    from_int = lift  # an integer is its own lift
    _normalize = staticmethod(Fraction)

    def _pi_pow(self, k: int) -> int:
        return self.p ** k

    @staticmethod
    def _cancel(a: int, b: int) -> tuple:
        g = math.gcd(a, b)
        return a // g, b // g

    def residue_elements(self) -> Iterator[int]:
        """All of R in a fixed order."""
        return iter(range(self.p ** self.t))

    def format_residue(self, c) -> str:
        return _number_text(c)

    _scalar_text = format_residue  # a Fraction prints as n or n/d

    def _term(self, coeff: Fraction, k: int) -> Fraction:
        if k > 0:
            raise ParseError("polynomial syntax is not valid for int-local rings")
        return coeff

    def _random_unit(self, rng) -> int:
        while True:
            k = rng.choice([-3, -2, -1, 1, 2, 3])
            if k % self.p != 0:
                return k

    def _random_scalar(self, rng) -> Fraction:
        return Fraction(rng.randrange(self.p ** self.t))


@dataclass(frozen=True)
class PolyLocal(RingCtx):
    """k[x]_(x): rational functions whose denominator has a nonzero
    constant term, pi = x; k is F_coeff_q, or Q when coeff_q is None.
    Lifts, integers and powers of pi have the denominator 1 of
    ``_unit_poly``, the one cache of it per coefficient field."""

    coeff_q: int | None = None
    kind = "poly-local"
    _q = property(lambda self: self.coeff_q)

    def _valuation(self, f: Poly):
        """x-adic valuation: index of the lowest nonzero coefficient."""
        for i, c in enumerate(f.ints):
            if c:
                return i
        return INFINITY

    def _mod(self, f: Poly, e: int) -> Poly:
        return f.truncate(e)

    def _pi_quotient(self, f: Poly, k: int) -> Poly:
        # exact: the k lowest coefficients are zero, so the form stays canonical
        return _poly(f.ints[k:], f.den, f.q)

    def _inverse_den(self, den: Poly, e: int) -> Poly:
        """The power series inverse of den modulo x^e."""
        c, q = den.ints, den.q
        if not c or not c[0]:
            raise DivisionLeavesRing("denominator has zero constant term")
        n = max(e, 1) if len(c) > 1 else 1
        if q is not None:
            c0inv = pow(c[0], -1, q)
            out = [c0inv]
            for k in range(1, n):
                acc = 0
                for i in range(1, min(k, len(c) - 1) + 1):
                    acc += c[i] * out[k - i]
                out.append(-acc * c0inv % q)
            return _canon(out, q)
        # Newton's iteration g -> g (2 - den g) doubles the precision of
        # g = 1/den, each product in lowest terms, so the coefficients keep
        # the size of the inverse's own.  The integer recurrence over
        # c_0^(k+1) (c_0 the constant term) makes term k k times as long as
        # c_0: 5.4 s on the residue of (1 - x)/(2 + x) at e = 462
        g, k = _canon([den.den], None, c[0]), 1
        while k < n:
            k = min(2 * k, n)
            g = (g * (_canon([2], None) - (den.truncate(k) * g).truncate(k))).truncate(k)
        return g

    def lift(self, f: Poly) -> PolyFrac:
        """The canonical representative of a residue as an element of S."""
        return PolyFrac(f, _unit_poly(self.coeff_q))

    def from_int(self, n: int) -> PolyFrac:
        return PolyFrac(Poly.const(n, self.coeff_q), _unit_poly(self.coeff_q))

    def _pi_pow(self, k: int) -> Poly:
        return Poly.x_power(k, self.coeff_q)

    _cancel = staticmethod(_cancel)

    @staticmethod
    def _normalize(num: Poly, den: Poly) -> PolyFrac:
        return PolyFrac.make(num, den)  # looked up per call, as tracers wrap it

    def residue_elements(self) -> Iterator[Poly]:
        """All of R in a fixed order; requires a finite residue field."""
        q = self.coeff_q
        if q is None:
            raise InfiniteResidueField(
                "cannot enumerate R over rational coefficients")
        return (Poly.make(c, q) for c in product(range(q), repeat=self.t))

    def format_residue(self, f: Poly) -> str:
        return _format_poly(f)

    def _scalar_text(self, a: PolyFrac) -> str:
        num, den = a.numerator, a.denominator
        if den.degree == 0 and den.constant_term() == 1:
            # "1/2 + x" would read back as 1/(2 + x)
            c0 = num.constant_term()
            text = _format_poly(num)
            return f"({text})" if c0.denominator != 1 and num.degree > 0 else text
        return f"({_format_poly(num)})/({_format_poly(den)})"

    def _term(self, coeff: Fraction, k: int) -> PolyFrac:
        try:
            return self.lift(Poly.make([0] * k + [coeff], self.coeff_q))
        except ZeroDivisionError as exc:
            raise ParseError(str(exc)) from exc

    def _random_unit(self, rng) -> Poly:
        c = rng.choice([1, 2, -1]) if self.coeff_q != 2 else 1
        d = rng.choice([-1, 0, 0, 1])
        return Poly.make([c, d], self.coeff_q)

    def _random_scalar(self, rng) -> PolyFrac:
        q = self.coeff_q
        lo, hi = (-3, 4) if q is None else (0, q)
        return self.lift(Poly.make([rng.randrange(lo, hi) for _ in range(self.t)], q))


# ---------------------------------------------------------------------------
# scalar text form


_INT_RE = re.compile(r"[0-9]+")  # ASCII only; str.isdigit also takes "²"
MAX_X_DEGREE = 4096  # largest k in x^k; the parser allocates k + 1 coefficients
MAX_INT_DIGITS = 4300  # longest digit run; Python's default int() limit
# below 2^_MAX_INT_BITS an integer has at most MAX_INT_DIGITS digits
_MAX_INT_BITS = int(MAX_INT_DIGITS * math.log2(10))


def _tokenize(text: str):
    toks = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if "0" <= ch <= "9":
            m = _INT_RE.match(text, pos)
            if m.end() - pos > MAX_INT_DIGITS:
                raise ParseError(f"integer of more than {MAX_INT_DIGITS} digits "
                                 f"in scalar {text[:20]!r}... "
                                 f"({len(text)} characters)")
            toks.append(("int", int(m.group())))
            pos = m.end()
            continue
        if ch in "x*^+/()-":
            toks.append((ch, None))
            pos += 1
            continue
        raise ParseError(f"bad character in scalar near {text[pos:]!r}")
    return toks


class _ScalarParser:
    """Recursive descent for the scalar grammar.

    frac := sum ('/' sum)?          -- at most one top-level quotient
    sum  := ('+'|'-')? term (('+'|'-') term)*
    term := '(' sum ')' | coeff ('*'? xpart)? | xpart
    coeff := INT ('/' INT)?         -- the slash is consumed here only inside
                                        parentheses or when the fraction is
                                        directly followed by '*' or 'x'
    xpart := 'x' ('^' INT)?
    """

    def __init__(self, text: str, ctx: RingCtx):
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0  # open parentheses; no quotient can start inside one
        self.ctx = ctx
        self.text = text

    def peek(self, ahead=0):
        i = self.pos + ahead
        return self.toks[i] if i < len(self.toks) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self) -> Scalar:
        value = self.sum_()
        if self.peek()[0] == "/":
            self.take()
            rhs = self.sum_()
            if not rhs:
                raise ParseError(f"zero denominator in {self.text!r}")
            value = value / rhs
        if self.pos != len(self.toks):
            raise ParseError(f"trailing input in scalar {self.text!r}")
        return value

    def sum_(self) -> Scalar:
        sign = 1
        if self.peek()[0] in ("+", "-"):
            sign = -1 if self.take()[0] == "-" else 1
        value = self.term()
        if sign < 0:
            value = -value
        while self.peek()[0] in ("+", "-"):
            neg = self.take()[0] == "-"
            t = self.term()
            value = value - t if neg else value + t
        return value

    def term(self) -> Scalar:
        kind, payload = self.peek()
        if kind == "(":
            self.take()
            self.depth += 1
            value = self.sum_()
            self.depth -= 1
            if self.take()[0] != ")":
                raise ParseError(f"unbalanced parentheses in {self.text!r}")
            return value
        if kind == "int":
            self.take()
            coeff = Fraction(payload)
            # a slash here is a coefficient fraction when it cannot be the
            # top-level quotient: inside parentheses, or when what follows
            # the second integer is a variable part
            if (self.peek()[0] == "/" and self.peek(1)[0] == "int"
                    and (self.depth or self.peek(2)[0] in ("*", "x"))):
                self.take()
                den = self.take()[1]
                if den == 0:
                    raise ParseError(f"zero denominator in {self.text!r}")
                coeff /= den
            star = self.peek()[0] == "*"
            if star:
                self.take()
            k = self.xpart() if star or self.peek()[0] == "x" else 0
            return self.ctx._term(coeff, k)
        if kind == "x":
            return self.ctx._term(Fraction(1), self.xpart())
        raise ParseError(f"unexpected token in scalar {self.text!r}")

    def xpart(self) -> int:
        if self.take()[0] != "x":
            raise ParseError(f"expected x in {self.text!r}")
        if self.peek()[0] == "^":
            self.take()
            kind, k = self.take()
            if kind != "int" or k > MAX_X_DEGREE:
                raise ParseError(f"expected an integer exponent of at most "
                                 f"{MAX_X_DEGREE} in {self.text!r}")
            return k
        return 1


def _number_text(c) -> str:
    """str of an int or Fraction, refusing to print an integer of more than
    MAX_INT_DIGITS digits, which the scalar parser would not read back."""
    for n in (c.numerator, c.denominator):
        if n.bit_length() > _MAX_INT_BITS and abs(n) >= 10 ** MAX_INT_DIGITS:
            raise ParametersTooLarge(
                f"result has an integer of more than MAX_INT_DIGITS = "
                f"{MAX_INT_DIGITS} digits")
    return str(c)


def _format_poly(p: Poly) -> str:
    if not p:
        return "0"
    parts = []
    for k, c in enumerate(p.coeffs):
        if c == 0:
            continue
        negative = isinstance(c, Fraction) and c < 0
        mag = -c if negative else c
        if k == 0:
            body = _number_text(mag)
        elif mag == 1:
            body = "x" if k == 1 else f"x^{k}"
        else:
            body = f"{_number_text(mag)}*x" + ("" if k == 1 else f"^{k}")
        parts.append(("-" if negative else "+", body))
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out
