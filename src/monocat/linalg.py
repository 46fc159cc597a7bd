"""Exact matrices over the base ring, Smith normal form, and linear solvers.

``MatS`` holds fraction-field entries; membership in S is an extra property
checked where the caller needs it.  Over Z_(p) the arithmetic of ``MatS``
runs on integer numerators over one shared denominator (the cleared form,
below); over k[x]_(x) it works entrywise with the exact scalar types from
:mod:`monocat.rings`.  The Smith form is one elimination for both rings:
its work rows, and the lines its transforms are replayed on, are
numerators over one denominator per line, ints or Polys, and one finisher
(``_from_lines``) turns lines into a ``MatS``, also for ``diag_pi`` and
the seeded draw ``random_unimodular``, whose lines are over denominator 1.
``MatR`` holds canonical residues and computes modulo omega.
"""

from __future__ import annotations

import random
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from itertools import chain, repeat
from math import gcd, lcm
from operator import add, mul
from typing import Sequence

from .errors import ContextMismatch, InternalInvariantError, SingularMatrix
from .rings import INFINITY, Residue, RingCtx, Scalar

_set = object.__setattr__
_UNSET = object()  # a cleared form not yet computed


class MatS:
    """Immutable matrix with entries in Frac(S), stored row-major.

    Over Z_(p) a matrix also has a cleared form, the layout of FLINT's
    ``fmpq_mat``: a tuple of integer numerators over one positive
    denominator den, with gcd(den, *nums) = 1, so den is the lcm of the
    entry denominators and the form is unique.  Products, sums, negation,
    scaling, ``sums_equal``, ``in_ring`` (den prime to p), ``is_zero``,
    ``==`` (when a side has no entries), the Smith form, its transforms,
    ``diag_pi`` and ``truncated_svals`` run on those ints, with no Fraction
    per entry; residues modulo omega, the congruence solver and blocks read
    ``entries``.  A matrix built from entries keeps them and is cleared on
    first need (``_clear``); a matrix computed in cleared form builds
    ``entries``, a tuple of Fractions, on first read.  Each form is built
    at most once.  Over k[x]_(x) there is no cleared form
    (``_cleared_ring``) and every operation reads the entries; the Smith
    form seeds its rows from them.
    """

    __slots__ = ("ctx", "rows", "cols", "_entries", "_cleared")

    def __init__(self, ctx: RingCtx, rows: int, cols: int, entries: tuple):
        _set(self, "ctx", ctx)
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "_entries", entries)
        _set(self, "_cleared", _UNSET)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def entries(self) -> tuple:
        e = self._entries
        if e is None:
            nums, den = self._cleared
            norm = self.ctx._normalize
            e = tuple(map(norm, nums) if den == 1 else map(norm, nums, repeat(den)))
            _set(self, "_entries", e)
        return e

    def _ints(self):
        """The cleared form (nums, den), or None over k[x]_(x)."""
        c = self._cleared
        if c is _UNSET:
            c = _clear(self._entries) if _cleared_ring(self.ctx) else None
            _set(self, "_cleared", c)
        return c

    def __eq__(self, other):
        if type(other) is not MatS:
            return NotImplemented
        if (self.ctx, self.rows, self.cols) != (other.ctx, other.rows, other.cols):
            return False
        if self._entries is None or other._entries is None:
            return self._ints() == other._ints()
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash((self.ctx, self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        return (f"MatS(ctx={self.ctx!r}, rows={self.rows!r}, cols={self.cols!r}, "
                f"entries={self.entries!r})")

    def at(self, i: int, j: int) -> Scalar:
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[Scalar]]:
        e, c = self.entries, self.cols
        return [list(e[i * c:(i + 1) * c]) for i in range(self.rows)]

    def is_zero(self) -> bool:
        e = self._entries
        return not any(self._cleared[0] if e is None else e)

    def in_ring(self) -> bool:
        c = self._ints()
        if c is None:
            return all(self.ctx.in_ring(e) for e in self.entries)
        return self.ctx._valuation(c[1]) == 0

    def is_square(self) -> bool:
        return self.rows == self.cols

    def _check(self, other: "MatS"):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ContextMismatch("matrices over different ring contexts")

    def __add__(self, other: "MatS") -> "MatS":
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix addition")
        a = self._ints()
        if a is None:
            return MatS(self.ctx, self.rows, self.cols,
                        tuple(x + y for x, y in zip(self.entries, other.entries)))
        return _reduced(self.ctx, self.rows, self.cols, *_add_cleared(a, other._ints()))

    def __sub__(self, other: "MatS") -> "MatS":
        return self + (-other)

    def __neg__(self) -> "MatS":
        a = self._ints()
        if a is None:
            return MatS(self.ctx, self.rows, self.cols, tuple(-e for e in self.entries))
        return _reduced(self.ctx, self.rows, self.cols, [-n for n in a[0]], a[1])

    def __matmul__(self, other: "MatS") -> "MatS":
        return _sum_of_products([(self, other)])

    def scale(self, c: Scalar) -> "MatS":
        a = self._ints()
        if a is None:
            return MatS(self.ctx, self.rows, self.cols,
                        tuple(c * e for e in self.entries))
        k = c.numerator
        return _reduced(self.ctx, self.rows, self.cols,
                        [k * n for n in a[0]], a[1] * c.denominator)


def _cleared_ring(ctx: RingCtx) -> bool:
    """Whether matrices over ctx have a cleared form: over Z_(p), whose
    scalars are Fractions of ints."""
    return type(ctx.one().numerator) is int


def _clear(entries) -> tuple:
    """The cleared form of a matrix's entries (see ``MatS``): integer
    numerators over their least common denominator."""
    pairs = [x.as_integer_ratio() for x in entries]
    den = lcm(*[d for _, d in pairs])
    if den == 1:
        return tuple([n for n, _ in pairs]), 1
    return tuple([n * (den // d) for n, d in pairs]), den


def _reduced(ctx: RingCtx, rows: int, cols: int, nums: list, den: int) -> MatS:
    """The matrix nums / den, for any positive den, in canonical cleared
    form: one gcd over the whole matrix.  Its entries are built on first
    read."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums, den = [n // g for n in nums], den // g
    m = MatS(ctx, rows, cols, None)
    _set(m, "_cleared", (tuple(nums), den))
    return m


def _add_cleared(a: tuple, b: tuple) -> tuple:
    """The sum of two cleared forms over the lcm of their denominators,
    unreduced."""
    (an, ad), (bn, bd) = a, b
    if ad == bd:
        return list(map(add, an, bn)), ad
    den = lcm(ad, bd)
    ka, kb = den // ad, den // bd
    return [x * ka + y * kb for x, y in zip(an, bn)], den


def _cleared_sum(products) -> tuple | None:
    """A sum of products a @ b in cleared form, each product over the
    product of its factors' denominators and the sum over their lcm,
    unreduced; or None over k[x]_(x)."""
    total = None
    for a, b in products:
        x = a._ints()
        if x is None:
            return None
        (an, ad), (bn, bd), n, m = x, b._ints(), a.cols, b.cols
        rows = [an[i * n:(i + 1) * n] for i in range(a.rows)]
        cols = [bn[j::m] for j in range(m)]
        term = ([sum(map(mul, row, col)) for row in rows for col in cols], ad * bd)
        total = term if total is None else _add_cleared(total, term)
    return total


def _sum_of_products(products) -> MatS:
    """The sum of products a @ b, given as a nonempty sequence of pairs
    (a, b): the one path of ``@`` and ``add_products``.  Its context and
    shape are read, and every product and term checked, by _sum_shape;
    each entry is normalized once: over Z_(p) one gcd over the cleared
    sum, over k[x]_(x) one _dot per entry over the pairs of every product
    chained."""
    ctx, (rows, cols) = _sum_shape(products)
    total = _cleared_sum(products)
    if total is None:
        return MatS(ctx, rows, cols, tuple(_dot(e, ctx) for e in _entry_pairs(products)))
    return _reduced(ctx, rows, cols, *total)


def add_products(a: MatS, b: MatS, c: MatS, d: MatS) -> MatS:
    """a @ b + c @ d, each entry normalized once."""
    return _sum_of_products([(a, b), (c, d)])


def _terms(pairs) -> list:
    """The pairs whose two factors are both nonzero."""
    return [(a, b) for a, b in pairs if a.numerator and b.numerator]


def _accumulate(terms):
    """Sum of a * b over terms of nonzero factors as an unreduced
    (numerator, denominator) over a common denominator, or None when there
    is no term."""
    num = den = None
    for a, b in terms:
        tn, td = a.numerator * b.numerator, a.denominator * b.denominator
        if num is None:
            num, den = tn, td
        elif td == den:
            num = num + tn
        else:
            num, den = num * td + tn * den, den * td
    return None if num is None else (num, den)


def _dot(pairs, ctx: RingCtx) -> Scalar:
    """Sum of a * b over the pairs, normalized once; a single nonzero term
    is the product itself."""
    terms = _terms(pairs)
    if len(terms) == 1:
        a, b = terms[0]
        return a * b
    acc = _accumulate(terms)
    return ctx.zero() if acc is None else ctx._normalize(*acc)


def _product_pairs(a: MatS, b: MatS) -> list:
    """For each entry of a @ b, row-major, the pairs of scalars whose
    products sum to it."""
    n, m = a.cols, b.cols
    cols = [b.entries[j::m] for j in range(m)]
    return [zip(a.entries[i * n:(i + 1) * n], col)
            for i in range(a.rows) for col in cols]


def _sum_shape(products) -> tuple:
    """The ring context and shape of a sum of products a @ b, given as a
    nonempty sequence of pairs (a, b).  Each product is checked, its
    contexts and then its inner dimension, before its term is checked
    against the first, by context and then by shape."""
    a0, b0 = products[0]
    shape = (a0.rows, b0.cols)
    for a, b in products:
        a._check(b)
        if a.cols != b.rows:
            raise ValueError(
                f"shape mismatch in matrix product: {a.rows}x{a.cols} times "
                f"{b.rows}x{b.cols}")
        a0._check(a)
        if (a.rows, b.cols) != shape:
            raise ValueError("shape mismatch in matrix addition")
    return a0.ctx, shape


def _entry_pairs(products) -> list:
    """For each entry of a checked sum of products, row-major, the pairs of
    scalars whose products sum to it."""
    if len(products) == 1:
        return _product_pairs(*products[0])
    return [chain.from_iterable(e)
            for e in zip(*(_product_pairs(a, b) for a, b in products))]


def _side_shape(side) -> tuple:
    """The ring context and shape of a side of ``sums_equal``."""
    if isinstance(side, MatS):
        return side.ctx, (side.rows, side.cols)
    return _sum_shape(side)


def _unreduced(side):
    """The entries of a side of ``sums_equal``, each an unreduced
    (numerator, denominator), or None for zero: the cleared form's
    numerators over its one denominator over Z_(p), per entry over
    k[x]_(x)."""
    if isinstance(side, MatS):
        cleared = side._ints()
        if cleared is None:
            return ((x.numerator, x.denominator) if x else None for x in side.entries)
    else:
        cleared = _cleared_sum(side)
        if cleared is None:
            return (_accumulate(_terms(e)) for e in _entry_pairs(side))
    nums, den = cleared
    return zip(nums, repeat(den))


def _same(x, y) -> bool:
    """Whether two unreduced (numerator, denominator) pairs are equal,
    None standing for zero."""
    if x is None or y is None:
        z = x or y
        return z is None or not z[0]
    if x[1] == y[1]:
        return x[0] == y[0]
    return x[0] * y[1] == y[0] * x[1]


def sums_equal(left, right) -> bool:
    """Whether two matrices, each given as a matrix or as a sum of
    products, agree entrywise.

    A sum of products is a nonempty sequence of pairs of matrices (a, b),
    standing for the sum of the a @ b.  No entry is brought to lowest
    terms.  Over Z_(p) each side is an unreduced cleared form: integer
    numerators over one denominator.  Over k[x]_(x) each entry of a sum
    accumulates as an unreduced numerator over a denominator, as ``_dot``
    does before it normalizes.  Equal denominators compare their
    numerators, and others compare n1 * d2 with n2 * d1, which is exact
    because S is an integral domain.  An entry with no nonzero term is
    zero.
    """
    lctx, lshape = _side_shape(left)
    rctx, rshape = _side_shape(right)
    if lctx != rctx:
        raise ContextMismatch("matrices over different ring contexts")
    if lshape != rshape:
        raise ValueError("shape mismatch in matrix comparison")
    return all(map(_same, _unreduced(left), _unreduced(right)))


def coerce_scalar(ctx: RingCtx, value) -> Scalar:
    if isinstance(value, str):
        return ctx.parse_scalar(value)
    if isinstance(value, int):
        return ctx.from_int(value)
    zero = ctx.zero()
    if isinstance(value, type(zero)):
        return value
    if isinstance(value, type(zero.numerator)):  # a Poly over k[x]_(x)
        return ctx.lift(value)
    raise TypeError(f"cannot coerce {value!r} into a scalar of {ctx!r}")


def mat(ctx: RingCtx, rows: Sequence[Sequence]) -> MatS:
    """Build a matrix from ints, scalar strings, scalars, or polynomials of
    k[x] (lifted into k[x]_(x))."""
    r = len(rows)
    c = len(rows[0]) if r else 0
    if any(len(row) != c for row in rows):
        raise ValueError("ragged matrix input")
    return MatS(ctx, r, c, tuple(coerce_scalar(ctx, v) for row in rows for v in row))


def zeros(ctx: RingCtx, rows: int, cols: int) -> MatS:
    z = ctx.zero()
    return MatS(ctx, rows, cols, (z,) * (rows * cols))


def identity(ctx: RingCtx, n: int) -> MatS:
    z, o = ctx.zero(), ctx.one()
    return MatS(ctx, n, n, tuple(o if i == j else z for i in range(n) for j in range(n)))


def diag_pi(ctx: RingCtx, exps: Sequence[int]) -> MatS:
    """diag(pi^e for e in exps): the one diagonal builder, on lines of
    numerators through ``_from_lines``, so in cleared form over Z_(p)."""
    n, zero, one = len(exps), ctx.zero().numerator, ctx.one().numerator
    return _from_lines(ctx, n, n, [[ctx._pi_num(e) if i == j else zero for j in range(n)]
                                   for i, e in enumerate(exps)], [one] * n)


def block(ctx: RingCtx, grid: Sequence[Sequence[MatS | None]]) -> MatS:
    """Assemble a block matrix in one pass over its entries; the one
    assembler, stacks included: ``[[a], [b]]`` stacks a over b, and
    ``[[a, b]]`` puts them side by side.  None cells become zero blocks
    with the height of their row and the width of their column.  A ragged
    grid is refused as an inconsistent block shape, and a row made only of
    0 x 0 blocks as ``hstack of nothing``."""
    heights = []
    for brow in grid:
        h = next((b.rows for b in brow if b is not None), None)
        if h is None:
            raise ValueError("block row with no blocks to infer height from")
        heights.append(h)
    widths = []
    for bcol in zip(*grid):
        w = next((b.cols for b in bcol if b is not None), None)
        if w is None:
            raise ValueError("block column with no blocks to infer width from")
        widths.append(w)
    zero = ctx.zero()
    entries = []
    for brow, h in zip(grid, heights):
        if len(brow) != len(widths) or any(b is not None and (b.rows, b.cols) != (h, w)
                                           for b, w in zip(brow, widths)):
            raise ValueError("inconsistent block shape")
        if not (h or any(widths)):
            raise ValueError("hstack of nothing")
        for i in range(h):
            for b, w in zip(brow, widths):
                entries.extend(repeat(zero, w) if b is None else b.entries[i * w:(i + 1) * w])
    return MatS(ctx, sum(heights), sum(widths), tuple(entries))


def inverse_frac(a: MatS) -> MatS:
    """Exact inverse over the fraction field (Gauss-Jordan).

    Raises SingularMatrix when the determinant vanishes; entries land back in
    S whenever det(a) is a unit.  A test reference, no library caller.
    """
    if not a.is_square():
        raise ValueError("inverse of a non-square matrix")
    n = a.rows
    ctx = a.ctx
    work = a.to_rows()
    aug = identity(ctx, n).to_rows()
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if work[i][k]), None)
        if pivot_row is None:
            raise SingularMatrix("matrix has zero determinant")
        if pivot_row != k:
            work[k], work[pivot_row] = work[pivot_row], work[k]
            aug[k], aug[pivot_row] = aug[pivot_row], aug[k]
        piv = work[k][k]
        for j in range(n):
            work[k][j] = work[k][j] / piv
            aug[k][j] = aug[k][j] / piv
        for i in range(n):
            if i == k or not work[i][k]:
                continue
            factor = work[i][k]
            for j in range(n):
                work[i][j] = work[i][j] - factor * work[k][j]
                aug[i][j] = aug[i][j] - factor * aug[k][j]
    return MatS(ctx, n, n, tuple(v for row in aug for v in row))


@dataclass(frozen=True)
class SnfResult:
    """Smith normal form A = U @ D @ V over the valuation ring.

    U and V are square with unit determinant, D is diagonal with entries
    pi^s for weakly increasing s; zero diagonal entries are reported as
    valuation INFINITY at the end of ``svals``.  The elimination touches
    only the work matrix and records its elementary operations, in order:
    ``row_ops`` (row swaps, row additions, pivot scalings) and ``col_ops``
    (column swaps and additions), each as (kind, a, b, c) with kind
    "swap" (lines a, b), "add" (line a -= c * line b) or "scale" (pivot
    line a times the unit b; c is its inverse).  ``u``, ``v`` and their
    inverses ``u_inv``, ``v_inv`` are built on first read by replaying
    that record onto an identity matrix, so callers that need only
    ``svals`` never pay for them.  D and the four transforms are finished
    by ``_from_lines``: over Z_(p) in cleared form, their ``entries`` built
    only on first read.  For a square matrix, ``columns`` pairs column j
    of V^-1 with column j of U, and ``rows`` pairs row i of V with row i
    of U^-1, each line cut once from those transforms: A E_ji B is column j
    of A times row i of B, so a Hom generator is a product of two lines.
    """

    d: MatS
    svals: tuple
    row_ops: tuple
    col_ops: tuple

    @cached_property
    def u(self) -> MatS:
        return _replay(self.d.ctx, self.d.rows, self.row_ops,
                       inverse=False, transpose=True)

    @cached_property
    def u_inv(self) -> MatS:
        return _replay(self.d.ctx, self.d.rows, self.row_ops,
                       inverse=True, transpose=False)

    @cached_property
    def v(self) -> MatS:
        return _replay(self.d.ctx, self.d.cols, self.col_ops,
                       inverse=False, transpose=False)

    @cached_property
    def v_inv(self) -> MatS:
        return _replay(self.d.ctx, self.d.cols, self.col_ops,
                       inverse=True, transpose=True)

    @cached_property
    def columns(self) -> tuple:
        return tuple(zip(_lines(self.v_inv, True), _lines(self.u, True), strict=True))

    @cached_property
    def rows(self) -> tuple:
        return tuple(zip(_lines(self.v, False), _lines(self.u_inv, False), strict=True))


def _lines(a: MatS, columns: bool) -> list:
    """The columns of a as n x 1 matrices, or its rows as 1 x n ones; over
    Z_(p) each is cut from the cleared form and reduced on its own."""
    r, c = a.rows, a.cols
    if columns:
        shape, cuts = (r, 1), [slice(j, None, c) for j in range(c)]
    else:
        shape, cuts = (1, c), [slice(i * c, (i + 1) * c) for i in range(r)]
    cleared = a._ints()
    if cleared is None:
        return [MatS(a.ctx, *shape, a.entries[cut]) for cut in cuts]
    nums, den = cleared
    return [_reduced(a.ctx, *shape, nums[cut], den) for cut in cuts]


def _replay(ctx: RingCtx, size: int, ops: tuple, *, inverse: bool,
            transpose: bool) -> MatS:
    """A Smith transform, built by replaying recorded steps on the identity.

    With ``inverse`` the steps apply as recorded: row steps give U^-1, and
    column steps, on columns, give V^-1.  Without it each step is undone on
    the other side: U on columns, V on rows.  Lines are rows, or columns
    when ``transpose``.  Each line is numerators over its own denominator,
    as in ``snf``, and ``_from_lines`` finishes the matrix.
    """
    zero, one = ctx.zero().numerator, ctx.one().numerator
    lines = [[one if i == j else zero for j in range(size)] for i in range(size)]
    dens = [one] * size
    for kind, a, b, c in ops:
        if kind == "swap":
            lines[a], lines[b] = lines[b], lines[a]
            dens[a], dens[b] = dens[b], dens[a]
        elif kind == "scale":
            f = c if inverse else b
            k = f.numerator
            lines[a] = [x * k for x in lines[a]]
            dens[a] = dens[a] * f.denominator
        else:  # line a -= c * line b, or line b += c * line a
            dst, src, cn = (a, b, -c.numerator) if inverse else (b, a, c.numerator)
            dens[dst] = _axpy(ctx, lines, dens, dst, src, cn, c.denominator)
    return _from_lines(ctx, size, size, lines, dens, transpose)


def _from_lines(ctx: RingCtx, rows: int, cols: int, lines: list, dens: list,
                transpose: bool = False) -> MatS:
    """The matrix whose line i is lines[i] / dens[i]; lines are its rows,
    or its columns when ``transpose``.  The one finisher of lines of
    numerators: over Z_(p) the lines are brought to the lcm of dens, one
    cleared form; over k[x]_(x) each entry is normalized once."""
    cleared = _cleared_ring(ctx)
    if cleared:
        den = lcm(*dens)
        lines = [[x * (den // d) for x in line] if d != den else line
                 for line, d in zip(lines, dens)]
    else:
        norm, zero = ctx._normalize, ctx.zero()
        lines = [[norm(x, d) if x else zero for x in line] for line, d in zip(lines, dens)]
    if transpose:
        lines = zip(*lines)
    flat = [x for line in lines for x in line]
    if cleared:
        return _reduced(ctx, rows, cols, flat, den)
    return MatS(ctx, rows, cols, tuple(flat))


def _axpy(ctx: RingCtx, lines: list, dens: list, dst: int, src: int, cn, cd):
    """Line dst += (cn / cd) * line src, on lines of numerators over the
    denominators dens; the new line is over the lcm of its two
    denominators, up to a unit (one ``_cancel``), which is returned."""
    d, e = dens[dst], cd * dens[src]
    dg, eg = ctx._cancel(d, e)
    kb = cn * dg
    lines[dst] = [x * eg + y * kb if y else x * eg
                  for x, y in zip(lines[dst], lines[src])]
    return d * eg


def _work_rows(a: MatS) -> tuple:
    """The rows of a as lines of numerators and their denominators, one
    per row: over Z_(p) the cleared form's, over k[x]_(x) the entries'
    denominators combined by ``_cancel`` (their lcm, up to a unit)."""
    ctx, n, c = a.ctx, a.cols, a._ints()
    if c is not None:
        nums, den = c
        return [list(nums[i * n:(i + 1) * n]) for i in range(a.rows)], [den] * a.rows
    one, lines, dens = ctx.one().numerator, [], []
    for row in a.to_rows():
        line, den = [], one
        for x in row:
            k, e = ctx._cancel(den, x.denominator)  # den / g, d / g
            if e != one:
                line, den = [y * e for y in line], den * e
            line.append(x.numerator * k)
        lines.append(line)
        dens.append(den)
    return lines, dens


def snf(a: MatS) -> SnfResult:
    """Deterministic Smith normal form over S.

    Pivoting picks the entry of minimal valuation, ties broken by smallest
    (row, col).  Because the pivot divides every entry of its submatrix,
    one elimination pass per pivot suffices and the diagonal exponents come
    out weakly increasing.  The pivot row is cleared by recording column
    steps, as the pivot is then alone in its column.  Only the work matrix
    is eliminated; the transforms are replayed from the recorded steps when
    first read.

    One elimination serves both rings.  Each work row is numerators over
    its own denominator (``_work_rows``): ints over Z_(p), Polys over
    k[x]_(x).  A matrix outside S is refused first, as the negative pi
    power its first pivot would be.  Otherwise every denominator is a unit,
    so the valuation of an entry is that of its numerator, and the loop
    needs only the ring operations on numerators (``_valuation``,
    ``_pi_quotient``, ``_cancel``, ``_normalize``, ``*``, ``+``, ``-``).
    The steps, pivots, quotients and unit scalings are exact values, and D
    is finished by ``_from_lines``.
    """
    ctx, m, n = a.ctx, a.rows, a.cols
    work, dens = _work_rows(a)
    val, frac = ctx._valuation, ctx._normalize
    worst = max(map(val, dens), default=0)
    if worst:  # outside S: the first pivot would be pi^-worst
        ctx.pi_pow(-worst)
    zero, one = ctx.zero().numerator, ctx.one().numerator
    diag = [[zero] * n for _ in range(m)]
    row_ops: list = []
    col_ops: list = []
    svals: list = []
    for k in range(min(m, n)):
        best = min(((val(x), i, j) for i in range(k, m)
                    for j, x in enumerate(work[i][k:], k) if x), default=None)
        if best is None:
            break
        sval, bi, bj = best
        if bi != k:
            work[k], work[bi] = work[bi], work[k]
            dens[k], dens[bi] = dens[bi], dens[k]
            row_ops.append(("swap", k, bi, None))
        if bj != k:
            for row in work:
                row[k], row[bj] = row[bj], row[k]
            col_ops.append(("swap", k, bj, None))
        prow, pden = work[k], dens[k]
        piv = prow[k]
        # clear the pivot column: row_i -= q * row_k, q = n_ik d_k / (d_i n_kk)
        for i in range(k + 1, m):
            x = work[i][k]
            if x:
                q = _quotient(ctx, x, dens[i], piv, pden)
                dens[i] = _axpy(ctx, work, dens, i, k, -q.numerator, q.denominator)
                row_ops.append(("add", i, k, q))
        # clear the pivot row: col_j -= q * col_k, q = n_kj / n_kk; row k is
        # never read again, so it is not zeroed
        for j in range(k + 1, n):
            x = prow[j]
            if x:
                col_ops.append(("add", j, k, _quotient(ctx, x, pden, piv, pden)))
        # normalize the pivot to a plain pi power: the unit is un / pden
        un = ctx._pi_quotient(piv, sval)
        if val(un) or val(pden):
            raise InternalInvariantError("pivot unit part is not a unit")
        if un != pden:
            unit = frac(un, pden)
            row_ops.append(("scale", k, unit, ctx.one() / unit))
        diag[k][k] = ctx._pi_num(sval)
        svals.append(sval)
    svals += [INFINITY] * (min(m, n) - len(svals))
    return SnfResult(_from_lines(ctx, m, n, diag, [one] * m), tuple(svals),
                     tuple(row_ops), tuple(col_ops))


def _quotient(ctx: RingCtx, n, d, pn, pd) -> Scalar:
    """The scalar (n/d) / (pn/pd) from numerators and denominators, checked
    to lie in S as ``div_exact`` checks it, and refused with its error."""
    q = ctx._normalize(n * pd, d * pn)
    if not ctx.in_ring(q):
        ctx.div_exact(ctx._normalize(n, d), ctx._normalize(pn, pd))
    return q


def truncated_svals(a: MatS, e: int) -> tuple:
    """The Smith exponents of a capped at e: min(s, e) for each of them,
    weakly increasing, with e also standing for a zero diagonal entry.

    The entries of a must lie in S.  Exponents below e depend only on a
    modulo pi^e, so the elimination runs on residues in S/(pi^e): no
    fraction-field scalars, no gcd, no record of steps.  Over Z_(p) the
    residues are read from the cleared form, nums / den, with one inverse
    of den modulo p^e per matrix; over k[x]_(x) each entry is reduced.
    The pivot has least valuation v, so pivot = pi^v * u with u a unit;
    scaling its row by u^-1 makes it pi^v, and every entry below is
    pi^v * c, cleared by row_i -= c * row_pivot.  Clearing the pivot row
    would then touch only that row, so the row and column are dropped
    instead.
    """
    ctx, c = a.ctx, a._ints()
    if c is None:
        return _residue_svals(ctx, [[ctx._reduce(x, e) for x in row]
                                    for row in a.to_rows()], e)
    (nums, den), n, mod = c, a.cols, ctx._mod
    inv = ctx._inverse_den(den, e)
    return _residue_svals(ctx, [[mod(x * inv, e) for x in nums[i * n:(i + 1) * n]]
                                for i in range(a.rows)], e)


def _residue_svals(ctx: RingCtx, rows: list, e: int) -> tuple:
    """``truncated_svals`` on the rows of canonical residues modulo pi^e of
    a matrix; the rows are consumed."""
    mod, val = ctx._mod, ctx._valuation
    quo, inv = ctx._pi_quotient, ctx._inverse_den
    size = min(len(rows), len(rows[0])) if rows else 0
    out = []
    while rows and rows[0]:
        best = min(((val(x), i, j) for i, row in enumerate(rows)
                    for j, x in enumerate(row) if x), default=None)
        if best is None:
            break
        v, bi, bj = best
        prow = rows.pop(bi)
        u_inv = inv(quo(prow.pop(bj), v), e)
        prow = [mod(u_inv * y, e) for y in prow]
        for i, row in enumerate(rows):
            c = row.pop(bj)
            if c:
                c = -quo(c, v)
                rows[i] = [mod(x + c * y, e) for x, y in zip(row, prow)]
        out.append(v)
    return tuple(out) + (e,) * (size - len(out))


def solve_sandwich_congruence(dl: Sequence, dr: Sequence, b: MatS,
                              ctx: RingCtx) -> MatS | None:
    """Solve diag(pi^dl) @ X @ diag(pi^dr) == B modulo omega for X over S.

    Cell (j, i) is solvable iff val(B[j,i]) >= min(dl[j] + dr[i], t); the
    deterministic solution takes X = 0 where B vanishes mod omega and the
    exact quotient otherwise.  Returns None when any cell fails.
    """
    t = ctx.t
    out = []
    for j in range(b.rows):
        for i in range(b.cols):
            entry = b.at(j, i)
            val = ctx.valuation(entry)
            need = min(dl[j] + dr[i], t)
            if val >= t:
                out.append(ctx.zero())
            elif val >= need:
                out.append(ctx.div_exact(entry, ctx.pi_pow(int(dl[j] + dr[i]))))
            else:
                return None
    return MatS(ctx, b.rows, b.cols, tuple(out))


def solve_linear(a: MatS, rhs: MatS) -> MatS | None:
    """One solution X of a @ X = rhs over S, or None.

    Solves through the Smith form a = U @ D @ V: D @ Y = U^-1 @ rhs is
    solved entrywise, free coordinates set to zero so the answer is
    deterministic, and X = V^-1 @ Y.  ``rhs`` may have several columns.
    """
    if a.rows != rhs.rows:
        raise ValueError("shape mismatch in linear solve")
    s = snf(a)
    c = s.u_inv @ rhs
    ctx = a.ctx
    k = rhs.cols
    y = [ctx.zero()] * (a.cols * k)
    for i, sval in enumerate(s.svals + (INFINITY,) * (a.rows - len(s.svals))):
        for j, x in enumerate(c.entries[i * k:(i + 1) * k]):
            if ctx.valuation(x) < sval:
                return None
            if x:
                y[i * k + j] = ctx.div_exact(x, ctx.pi_pow(sval))
    return s.v_inv @ MatS(ctx, a.cols, k, tuple(y))


def random_unimodular(n: int, seed: int, ctx: RingCtx) -> MatS:
    """Unit-determinant matrix built from bounded elementary operations.

    Deterministic in (n, seed, ctx): the same arguments always give the
    same matrix.  The operations run on lines of numerators over
    denominator 1, ints or Polys, as every draw (``_random_unit``,
    ``_pi_num``) is one; ``_from_lines`` finishes them, in cleared form
    over Z_(p).
    """
    if n == 0:
        return identity(ctx, 0)
    rng = random.Random(seed)
    zero, one = ctx.zero().numerator, ctx.one().numerator
    lines = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for _ in range(2 * n + 4):
        op = rng.randrange(3)
        if op == 0 and n > 1:
            i, j = rng.sample(range(n), 2)
            c = ctx._random_unit(rng) * ctx._pi_num(rng.choice([0, 0, 1, 2]))
            lines[i] = [x + c * y if y else x for x, y in zip(lines[i], lines[j])]
        elif op == 1 and n > 1:
            i, j = rng.sample(range(n), 2)
            lines[i], lines[j] = lines[j], lines[i]
        else:
            i = rng.randrange(n)
            c = ctx._random_unit(rng)
            lines[i] = [x * c for x in lines[i]]
    return _from_lines(ctx, n, n, lines, [one] * n)


# ---------------------------------------------------------------------------
# residue matrices over R = S/(omega)


@dataclass(frozen=True)
class MatR:
    """Matrix of canonical residues; arithmetic is modulo omega."""

    ctx: RingCtx
    rows: int
    cols: int
    entries: tuple

    def at(self, i: int, j: int) -> Residue:
        return self.entries[i * self.cols + j]

    def is_zero(self) -> bool:
        return not any(self.entries)

    def _check(self, other: "MatR"):
        if self.ctx != other.ctx:
            raise ContextMismatch("residue matrices over different contexts")

    def __matmul__(self, other: "MatR") -> "MatR":
        self._check(other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch in residue matrix product")
        cols = [other.entries[j::other.cols] for j in range(other.cols)]
        return MatR(self.ctx, self.rows, other.cols,
                    tuple(_row_times(self.ctx, row, col)
                          for row in self._rows() for col in cols))

    def apply(self, vec: tuple) -> tuple:
        """Image of a residue column vector."""
        return tuple(_row_times(self.ctx, row, vec) for row in self._rows())

    def _rows(self):
        return (self.entries[i * self.cols:(i + 1) * self.cols]
                for i in range(self.rows))


def _row_times(ctx: RingCtx, row, col) -> Residue:
    """Sum of the products row[k] * col[k], reduced modulo omega once."""
    return ctx.residue_truncate(sum(map(mul, row, col), ctx.residue_zero()), ctx.t)


def reduce_mat(a: MatS) -> MatR:
    """Entrywise reduction of an S-matrix modulo omega.  An entry outside
    S raises DivisionLeavesRing, naming the first such entry."""
    return MatR(a.ctx, a.rows, a.cols, tuple(map(a.ctx.reduce_mod_omega, a.entries)))
