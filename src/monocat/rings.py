"""Exact arithmetic in a discrete valuation ring S and its quotient R = S/(pi^t).

Two flavours of S are supported, both with a chosen uniformizer pi:

* ``int-local``   -- the integers localized at a prime p.  Elements are
  fractions a/b with b coprime to p; pi = p.
* ``poly-local``  -- k[x] localized at (x), where k is the rationals or a
  prime field F_q.  Elements are rational functions whose denominator has
  nonzero constant term; pi = x.

A :class:`RingCtx` fixes the ring, the exponent t >= 1 and hence the
element omega = pi^t and the residue chain ring R = S/(omega).  Scalars are
plain :class:`fractions.Fraction` values in the int-local case and
:class:`PolyFrac` values in the poly-local case; residues are canonical
integers in [0, p^t) respectively polynomials of degree < t.

Normalization policy.  Coefficients inside a :class:`Poly` are always
canonical, and the polynomial operations keep them so inline (``% q`` over
F_q; over Q a Fraction operation already yields a Fraction) instead of
re-normalizing each coefficient.  A :class:`PolyFrac` or Fraction is brought
to lowest terms once per result: a matrix product accumulates each entry as
an unreduced numerator over a denominator and normalizes it once.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Iterator, Union

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


def _int_valuation(n: int, p: int):
    """p-adic valuation of an integer, INFINITY for zero."""
    if n == 0:
        return INFINITY
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# polynomials over Q or F_q


@dataclass(frozen=True)
class Poly:
    """Dense univariate polynomial, coefficients listed by ascending degree.

    ``q is None`` means rational coefficients (Fractions); otherwise the
    coefficients are canonical integers in [0, q) for the prime field F_q.
    The zero polynomial is the empty tuple.  Instances are normalized, so
    structural equality is mathematical equality.
    """

    coeffs: tuple
    q: int | None = None

    @staticmethod
    def make(coeffs, q: int | None = None) -> "Poly":
        return _canon([_coeff_canon(c, q) for c in coeffs], q)

    @staticmethod
    def const(c, q: int | None = None) -> "Poly":
        return Poly.make([c], q)

    @staticmethod
    def x_power(k: int, q: int | None = None) -> "Poly":
        return Poly.make([0] * k + [1], q)

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def valuation(self):
        """x-adic valuation: index of the lowest nonzero coefficient."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return i
        return INFINITY

    def constant_term(self):
        return self.coeffs[0] if self.coeffs else _coeff_canon(0, self.q)

    def leading(self):
        if not self.coeffs:
            raise ZeroDivisionError("leading coefficient of zero polynomial")
        return self.coeffs[-1]

    def _check(self, other: "Poly"):
        if self.q != other.q:
            raise ContextMismatch("polynomials over different coefficient fields")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        a, b, q = self.coeffs, other.coeffs, self.q
        if len(a) < len(b):
            a, b = b, a
        return _canon([x + y for x, y in zip(a, b)] + list(a[len(b):]), q)

    def __neg__(self) -> "Poly":
        return _canon([-c for c in self.coeffs], self.q)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        a, b, q = self.coeffs, other.coeffs, self.q
        if not a or not b:
            return Poly((), q)
        out = [_ZERO_Q if q is None else 0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _canon(out, q)

    def scale(self, c) -> "Poly":
        c = _coeff_canon(c, self.q)
        return _canon([a * c for a in self.coeffs], self.q)

    def truncate(self, k: int) -> "Poly":
        """Reduce modulo x^k."""
        return _canon(list(self.coeffs[:k]), self.q)

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        inv = _coeff_inv(self.leading(), self.q)
        return self.scale(inv)

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q, b = self.q, other.coeffs
        rem = list(self.coeffs)
        dq = len(b) - 1
        inv = _coeff_inv(b[-1], q)
        quo = [0] * max(0, len(rem) - dq)
        # over F_q the remainder stays unreduced until _canon
        for i in range(len(rem) - dq - 1, -1, -1):
            c = rem[i + dq] * inv if q is None else rem[i + dq] * inv % q
            quo[i] = c
            if c:
                for j in range(dq):
                    rem[i + j] -= c * b[j]
        return _canon(quo, q), _canon(rem[:dq], q)

    def gcd(self, other: "Poly") -> "Poly":
        """Monic greatest common divisor (Euclid)."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic()


_ZERO_Q = Fraction(0)


def _canon(cs: list, q: int | None) -> Poly:
    """The Poly of a coefficient list: Fractions over Q, any integers over
    F_q (reduced here); trailing zeros are dropped."""
    if q is not None:
        cs = [c % q for c in cs]
    while cs and not cs[-1]:
        cs.pop()
    return Poly(tuple(cs), q)


def _coeff_canon(c, q: int | None):
    """Canonical coefficient: Fraction for q None, int in [0, q) otherwise."""
    if q is None:
        return c if type(c) is Fraction else Fraction(c)
    if type(c) is int:
        return c % q
    if isinstance(c, Fraction):
        if c.denominator % q == 0:
            raise ZeroDivisionError(f"denominator {c.denominator} not invertible mod {q}")
        return (c.numerator * pow(c.denominator, -1, q)) % q
    return int(c) % q


def _coeff_inv(c, q: int | None):
    if q is None:
        if c == 0:
            raise ZeroDivisionError("inverse of zero coefficient")
        return 1 / Fraction(c)
    return pow(int(c), -1, q)


@dataclass(frozen=True)
class PolyFrac:
    """Quotient of polynomials in lowest terms with monic denominator.

    Elements of the local ring k[x]_(x) have a denominator with nonzero
    constant term; general fraction-field elements (needed transiently by
    matrix inversion) do not.  Normalization makes structural equality
    mathematical equality.
    """

    num: Poly
    den: Poly

    @staticmethod
    def make(num: Poly, den: Poly) -> "PolyFrac":
        if den.is_zero():
            raise ZeroDivisionError("polynomial fraction with zero denominator")
        num._check(den)
        if num.is_zero():
            return PolyFrac(num, Poly.const(1, num.q))
        if den.degree == 0:
            if den.coeffs[0] == 1:
                return PolyFrac(num, den)
        elif num.degree > 0:
            # a constant on either side has gcd 1 with the other
            g = num.gcd(den)
            if g.degree > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
        lead_inv = _coeff_inv(den.leading(), num.q)
        return PolyFrac(num.scale(lead_inv), den.scale(lead_inv))

    @staticmethod
    def from_poly(p: Poly) -> "PolyFrac":
        return PolyFrac.make(p, Poly.const(1, p.q))

    @property
    def q(self) -> int | None:
        return self.num.q

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def valuation(self):
        if self.is_zero():
            return INFINITY
        return self.num.valuation() - self.den.valuation()

    def __add__(self, other: "PolyFrac") -> "PolyFrac":
        return PolyFrac.make(self.num * other.den + other.num * self.den,
                             self.den * other.den)

    def __sub__(self, other: "PolyFrac") -> "PolyFrac":
        return self + (-other)

    def __neg__(self) -> "PolyFrac":
        return PolyFrac(-self.num, self.den)

    def __mul__(self, other: "PolyFrac") -> "PolyFrac":
        return PolyFrac.make(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "PolyFrac") -> "PolyFrac":
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial fraction")
        return PolyFrac.make(self.num * other.den, self.den * other.num)


# ---------------------------------------------------------------------------
# ring contexts


@dataclass(frozen=True)
class RingCtx:
    """A discrete valuation ring S together with the exponent t.

    Everything downstream (matrices, objects, morphisms) carries one of
    these; mixing contexts raises ContextMismatch.  Instances are immutable
    value objects: two contexts are interchangeable iff they compare equal.
    """

    kind: str  # "int-local" | "poly-local"
    t: int
    p: int | None = None        # prime for int-local
    coeff_q: int | None = None  # prime field modulus for poly-local, None = rationals

    def __post_init__(self):
        if self.kind not in ("int-local", "poly-local"):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.t < 1:
            raise ValueError("t must be at least 1")
        if self.kind == "int-local":
            if self.p is None or not _is_prime(self.p):
                raise ValueError("int-local ring needs a prime p")
            if self.coeff_q is not None:
                raise ValueError("coeff_q is a poly-local parameter")
        else:
            if self.p is not None:
                raise ValueError("p is an int-local parameter")
            if self.coeff_q is not None and not _is_prime(self.coeff_q):
                raise ValueError("coefficient field modulus must be prime")

    @staticmethod
    def int_local(p: int, t: int) -> "RingCtx":
        return RingCtx(kind="int-local", t=t, p=p)

    @staticmethod
    def poly_local(t: int, q: int | None = None) -> "RingCtx":
        return RingCtx(kind="poly-local", t=t, coeff_q=q)

    # -- scalar construction ------------------------------------------------

    def zero(self) -> Scalar:
        if self.kind == "int-local":
            return Fraction(0)
        return PolyFrac.from_poly(Poly((), self.coeff_q))

    def one(self) -> Scalar:
        return self.from_int(1)

    def from_int(self, n: int) -> Scalar:
        if self.kind == "int-local":
            return Fraction(n)
        return PolyFrac.from_poly(Poly.const(n, self.coeff_q))

    def pi(self) -> Scalar:
        if self.kind == "int-local":
            return Fraction(self.p)
        return PolyFrac.from_poly(Poly.x_power(1, self.coeff_q))

    def pi_pow(self, k: int) -> Scalar:
        if k < 0:
            raise ValueError("pi_pow takes a nonnegative exponent")
        if self.kind == "int-local":
            return Fraction(self.p ** k)
        return PolyFrac.from_poly(Poly.x_power(k, self.coeff_q))

    @cached_property
    def _omega(self) -> Scalar:
        return self.pi_pow(self.t)

    def omega(self) -> Scalar:
        return self._omega

    # -- scalar predicates and arithmetic ------------------------------------

    def is_zero(self, a: Scalar) -> bool:
        if self.kind == "int-local":
            return a == 0
        return a.is_zero()

    def valuation(self, a: Scalar):
        """pi-adic valuation; INFINITY for zero.  Defined on all of Frac(S),
        so the result can be negative for elements outside S."""
        if self.kind == "int-local":
            if a == 0:
                return INFINITY
            return _int_valuation(a.numerator, self.p) - _int_valuation(a.denominator, self.p)
        return a.valuation()

    def in_ring(self, a: Scalar) -> bool:
        """Membership in S inside its fraction field."""
        if self.kind == "int-local":
            return a.denominator % self.p != 0
        return a.den.valuation() == 0

    def is_unit(self, a: Scalar) -> bool:
        return self.valuation(a) == 0 and self.in_ring(a)

    def div_exact(self, a: Scalar, b: Scalar) -> Scalar:
        """Quotient a/b checked to lie in S; raises DivisionLeavesRing."""
        if self.is_zero(b):
            raise ZeroDivisionError("exact division by zero")
        q = a / b
        if not self.in_ring(q):
            raise DivisionLeavesRing(
                f"{self.format_scalar(a)} / {self.format_scalar(b)} leaves the ring")
        return q

    def unit_part(self, a: Scalar) -> Scalar:
        """a / pi^v(a) for nonzero a."""
        v = self.valuation(a)
        if v is INFINITY:
            raise ZeroDivisionError("unit part of zero")
        return a / self.pi_pow(int(v)) if v >= 0 else a * self.pi_pow(int(-v))

    # -- residues: R = S/(omega) ---------------------------------------------

    @property
    def residue_modulus(self) -> int | None:
        """|R| when finite (p^t or q^t), else None."""
        if self.kind == "int-local":
            return self.p ** self.t
        if self.coeff_q is not None:
            return self.coeff_q ** self.t
        return None

    @property
    def has_finite_residue_field(self) -> bool:
        return self.kind == "int-local" or self.coeff_q is not None

    @property
    def residue_field_size(self) -> int:
        if self.kind == "int-local":
            return self.p
        if self.coeff_q is None:
            raise InfiniteResidueField("residue field is the rationals")
        return self.coeff_q

    def reduce_mod_omega(self, a: Scalar) -> Residue:
        """Canonical representative of a in R; a must lie in S."""
        if not self.in_ring(a):
            raise DivisionLeavesRing(
                f"{self.format_scalar(a)} is not in the local ring")
        if self.kind == "int-local":
            m = self.p ** self.t
            return (a.numerator * pow(a.denominator, -1, m)) % m
        if a.is_zero():
            return Poly((), self.coeff_q)
        inv = _series_inverse(a.den, self.t)
        return (a.num * inv).truncate(self.t)

    def lift(self, r: Residue) -> Scalar:
        """The canonical representative of r as an element of S."""
        if self.kind == "int-local":
            return Fraction(r)
        return PolyFrac.from_poly(r)

    def residue_zero(self) -> Residue:
        return 0 if self.kind == "int-local" else Poly((), self.coeff_q)

    def residue_one(self) -> Residue:
        return self.residue_from_int(1)

    def residue_from_int(self, n: int) -> Residue:
        if self.kind == "int-local":
            return n % (self.p ** self.t)
        return Poly.const(n, self.coeff_q).truncate(self.t)

    def residue_add(self, r1: Residue, r2: Residue) -> Residue:
        if self.kind == "int-local":
            return (r1 + r2) % (self.p ** self.t)
        return (r1 + r2).truncate(self.t)

    def residue_neg(self, r: Residue) -> Residue:
        if self.kind == "int-local":
            return (-r) % (self.p ** self.t)
        return (-r).truncate(self.t)

    def residue_mul(self, r1: Residue, r2: Residue) -> Residue:
        if self.kind == "int-local":
            return (r1 * r2) % (self.p ** self.t)
        return (r1 * r2).truncate(self.t)

    def residue_is_zero(self, r: Residue) -> bool:
        return r == 0 if self.kind == "int-local" else r.is_zero()

    def residue_truncate(self, r: Residue, e: int) -> Residue:
        """Canonical representative modulo pi^e (0 <= e <= t)."""
        if self.kind == "int-local":
            return r % (self.p ** e)
        return r.truncate(e)

    def residue_valuation(self, r: Residue):
        """Valuation of the canonical lift; INFINITY for the zero residue."""
        if self.kind == "int-local":
            return _int_valuation(r, self.p)
        return r.valuation()

    def residue_elements(self) -> Iterator[Residue]:
        """All of R in a fixed order; requires a finite residue field."""
        if self.kind == "int-local":
            yield from range(self.p ** self.t)
            return
        if self.coeff_q is None:
            raise InfiniteResidueField(
                "cannot enumerate R over rational coefficients")
        for coeffs in product(range(self.coeff_q), repeat=self.t):
            yield Poly.make(coeffs, self.coeff_q)

    def format_residue(self, r: Residue) -> str:
        if self.kind == "int-local":
            return _number_text(r)
        return _format_poly(r)

    # -- text form ------------------------------------------------------------

    def parse_scalar(self, text: str) -> Scalar:
        """Parse the scalar syntax used by matrix files.

        Integers, fractions a/b, and (for poly-local rings) polynomial sums
        of c, c*x^k, x^k, x; one top-level quotient of two such sums is
        accepted so every element of S has a readable form.  The result is
        checked to lie in S.
        """
        value = _ScalarParser(text, self).parse()
        if not self.in_ring(value):
            raise ParseError(f"{text!r} is not an element of the local ring")
        return value

    def format_scalar(self, a: Scalar) -> str:
        if self.kind == "int-local":
            return _number_text(a)
        num = _format_poly(a.num)
        if a.den.degree == 0 and a.den.constant_term() == 1:
            # "1/2 + x" would read back as 1/(2 + x)
            c0 = a.num.constant_term()
            return f"({num})" if c0.denominator != 1 and a.num.degree > 0 else num
        return f"({num})/({_format_poly(a.den)})"


def _series_inverse(den: Poly, t: int) -> Poly:
    """Inverse of den modulo x^t; constant term must be invertible."""
    c0 = den.constant_term()
    if c0 == 0:
        raise DivisionLeavesRing("denominator has zero constant term")
    c0inv = _coeff_inv(c0, den.q)
    out = [c0inv]
    coeffs = den.coeffs
    for n in range(1, t):
        acc = 0
        for i in range(1, min(n, len(coeffs) - 1) + 1):
            acc += coeffs[i] * out[n - i]
        out.append(_coeff_canon(-acc * c0inv, den.q))
    return Poly.make(out, den.q)


# ---------------------------------------------------------------------------
# scalar text form


_INT_RE = re.compile(r"\d+")
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
        if ch.isdigit():
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
            if self.ctx.is_zero(rhs):
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
            if self.peek()[0] == "*":
                self.take()
                k = self.xpart()
                return self.coeff_times_xpow(coeff, k)
            if self.peek()[0] == "x":
                k = self.xpart()
                return self.coeff_times_xpow(coeff, k)
            return self.coeff_times_xpow(coeff, 0)
        if kind == "x":
            return self.coeff_times_xpow(Fraction(1), self.xpart())
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

    def coeff_times_xpow(self, coeff: Fraction, k: int) -> Scalar:
        if self.ctx.kind == "int-local":
            if k > 0:
                raise ParseError("polynomial syntax is not valid for int-local rings")
            return coeff
        q = self.ctx.coeff_q
        try:
            c = _coeff_canon(coeff, q)
        except ZeroDivisionError as exc:
            raise ParseError(str(exc)) from exc
        return PolyFrac.from_poly(Poly.make([0] * k + [c], q))


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
    if p.is_zero():
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
