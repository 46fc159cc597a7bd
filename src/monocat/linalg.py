"""Exact matrices over the base ring, Smith normal form, and linear solvers.

Everything here works entrywise with the exact scalar types from
:mod:`monocat.rings`.  ``MatS`` holds fraction-field entries; membership in
S is an extra property checked where the caller needs it.  ``MatR`` holds
canonical residues and computes modulo omega.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ContextMismatch, SingularMatrix
from .rings import INFINITY, Poly, PolyFrac, Residue, RingCtx, Scalar


@dataclass(frozen=True)
class MatS:
    """Immutable matrix with entries in Frac(S), stored row-major."""

    ctx: RingCtx
    rows: int
    cols: int
    entries: tuple

    def at(self, i: int, j: int) -> Scalar:
        return self.entries[i * self.cols + j]

    def to_rows(self) -> list[list[Scalar]]:
        return [[self.at(i, j) for j in range(self.cols)] for i in range(self.rows)]

    def is_zero(self) -> bool:
        return all(self.ctx.is_zero(e) for e in self.entries)

    def in_ring(self) -> bool:
        return all(self.ctx.in_ring(e) for e in self.entries)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def _check(self, other: "MatS"):
        if self.ctx != other.ctx:
            raise ContextMismatch("matrices over different ring contexts")

    def __add__(self, other: "MatS") -> "MatS":
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix addition")
        return MatS(self.ctx, self.rows, self.cols,
                    tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "MatS") -> "MatS":
        return self + (-other)

    def __neg__(self) -> "MatS":
        return MatS(self.ctx, self.rows, self.cols, tuple(-e for e in self.entries))

    def __matmul__(self, other: "MatS") -> "MatS":
        self._check(other)
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch in matrix product: {self.rows}x{self.cols} times "
                f"{other.rows}x{other.cols}")
        ctx, n, m = self.ctx, self.cols, other.cols
        a = self.entries
        cols = [other.entries[j::m] for j in range(m)]
        return MatS(ctx, self.rows, m,
                    tuple(_dot(zip(a[i * n:(i + 1) * n], col), ctx)
                          for i in range(self.rows) for col in cols))

    def scale(self, c: Scalar) -> "MatS":
        return MatS(self.ctx, self.rows, self.cols, tuple(c * e for e in self.entries))

    def transpose(self) -> "MatS":
        return MatS(self.ctx, self.cols, self.rows,
                    tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)))

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "MatS":
        return MatS(self.ctx, len(row_idx), len(col_idx),
                    tuple(self.at(i, j) for i in row_idx for j in col_idx))


def _dot(pairs, ctx: RingCtx) -> Scalar:
    """Sum of a * b over the pairs, normalized once: the terms accumulate
    as an unreduced numerator over a common denominator."""
    if ctx.kind == "int-local":
        terms = ((a.numerator * b.numerator, a.denominator * b.denominator)
                 for a, b in pairs if a and b)
        normalize = Fraction
    else:
        terms = ((a.num * b.num, a.den * b.den)
                 for a, b in pairs if a.num.coeffs and b.num.coeffs)
        normalize = PolyFrac.make
    num = den = None
    for tn, td in terms:
        if num is None:
            num, den = tn, td
        elif td == den:
            num = num + tn
        else:
            num, den = num * td + tn * den, den * td
    return ctx.zero() if num is None else normalize(num, den)


def coerce_scalar(ctx: RingCtx, value) -> Scalar:
    if isinstance(value, str):
        return ctx.parse_scalar(value)
    if isinstance(value, int):
        return ctx.from_int(value)
    if isinstance(value, Fraction) and ctx.kind == "int-local":
        return value
    if isinstance(value, PolyFrac) and ctx.kind == "poly-local":
        return value
    if isinstance(value, Poly) and ctx.kind == "poly-local":
        return PolyFrac.from_poly(value)
    raise TypeError(f"cannot coerce {value!r} into a scalar for {ctx.kind}")


def mat(ctx: RingCtx, rows: Sequence[Sequence]) -> MatS:
    """Build a matrix from ints, scalar strings, or scalars."""
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


def diag(ctx: RingCtx, values: Sequence[Scalar]) -> MatS:
    n = len(values)
    z = ctx.zero()
    return MatS(ctx, n, n,
                tuple(values[i] if i == j else z for i in range(n) for j in range(n)))


def diag_pi(ctx: RingCtx, exps: Sequence[int]) -> MatS:
    return diag(ctx, [ctx.pi_pow(e) for e in exps])


def hstack(blocks: Sequence[MatS]) -> MatS:
    blocks = [b for b in blocks if b.cols > 0 or b.rows > 0]
    if not blocks:
        raise ValueError("hstack of nothing")
    ctx, rows = blocks[0].ctx, blocks[0].rows
    if any(b.rows != rows for b in blocks):
        raise ValueError("hstack blocks disagree on row count")
    entries = []
    for i in range(rows):
        for b in blocks:
            entries.extend(b.at(i, j) for j in range(b.cols))
    return MatS(ctx, rows, sum(b.cols for b in blocks), tuple(entries))


def vstack(blocks: Sequence[MatS]) -> MatS:
    if not blocks:
        raise ValueError("vstack of nothing")
    ctx, cols = blocks[0].ctx, blocks[0].cols
    if any(b.cols != cols for b in blocks):
        raise ValueError("vstack blocks disagree on column count")
    entries = []
    for b in blocks:
        entries.extend(b.entries)
    return MatS(ctx, sum(b.rows for b in blocks), cols, tuple(entries))


def block(ctx: RingCtx, grid: Sequence[Sequence[MatS | None]]) -> MatS:
    """Assemble a block matrix; None cells become zero blocks with the
    height of their row and the width of their column."""
    heights = []
    for brow in grid:
        h = next((b.rows for b in brow if b is not None), None)
        if h is None:
            raise ValueError("block row with no blocks to infer height from")
        heights.append(h)
    widths = []
    for j in range(len(grid[0])):
        w = next((grid[i][j].cols for i in range(len(grid)) if grid[i][j] is not None), None)
        if w is None:
            raise ValueError("block column with no blocks to infer width from")
        widths.append(w)
    rows = []
    for i, brow in enumerate(grid):
        filled = []
        for j, b in enumerate(brow):
            if b is None:
                b = zeros(ctx, heights[i], widths[j])
            elif b.rows != heights[i] or b.cols != widths[j]:
                raise ValueError("inconsistent block shape")
            filled.append(b)
        rows.append(hstack(filled))
    return vstack(rows)


def kron(a: MatS, b: MatS) -> MatS:
    """Kronecker product, consistent with row-major vectorization:
    vec(A @ X @ B) == kron(A, transpose(B)) @ vec(X)."""
    if a.ctx != b.ctx:
        raise ContextMismatch("kronecker product across ring contexts")
    entries = []
    for i in range(a.rows):
        for r in range(b.rows):
            for j in range(a.cols):
                for c in range(b.cols):
                    entries.append(a.at(i, j) * b.at(r, c))
    return MatS(a.ctx, a.rows * b.rows, a.cols * b.cols, tuple(entries))


def det(a: MatS) -> Scalar:
    """Exact determinant by elimination; a test reference, no library caller."""
    if not a.is_square():
        raise ValueError("determinant of a non-square matrix")
    n = a.rows
    ctx = a.ctx
    if n == 0:
        return ctx.one()
    work = a.to_rows()
    sign_flip = False
    result = ctx.one()
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if not ctx.is_zero(work[i][k])), None)
        if pivot_row is None:
            return ctx.zero()
        if pivot_row != k:
            work[k], work[pivot_row] = work[pivot_row], work[k]
            sign_flip = not sign_flip
        piv = work[k][k]
        result = result * piv
        for i in range(k + 1, n):
            if ctx.is_zero(work[i][k]):
                continue
            factor = work[i][k] / piv
            for j in range(k, n):
                work[i][j] = work[i][j] - factor * work[k][j]
    return -result if sign_flip else result


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
        pivot_row = next((i for i in range(k, n) if not ctx.is_zero(work[i][k])), None)
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
            if i == k or ctx.is_zero(work[i][k]):
                continue
            factor = work[i][k]
            for j in range(n):
                work[i][j] = work[i][j] - factor * work[k][j]
                aug[i][j] = aug[i][j] - factor * aug[k][j]
    return MatS(ctx, n, n, tuple(v for row in aug for v in row))


def adjugate(a: MatS) -> MatS:
    """det(a) * a^{-1}; a test reference, no library code calls it."""
    d = det(a)
    if a.ctx.is_zero(d):
        raise SingularMatrix("adjugate via inverse needs a nonzero determinant")
    return inverse_frac(a).scale(d)


@dataclass(frozen=True)
class SnfResult:
    """Smith normal form A = U @ D @ V over the valuation ring.

    U and V are square with unit determinant, D is diagonal with entries
    pi^s for weakly increasing s; zero diagonal entries are reported as
    valuation INFINITY at the end of ``svals``.  ``u_inv`` and ``v_inv``
    are the inverses of U and V, built by the same elimination.
    """

    u: MatS
    d: MatS
    v: MatS
    svals: tuple
    u_inv: MatS
    v_inv: MatS


def snf(a: MatS) -> SnfResult:
    """Deterministic Smith normal form over S.

    Pivoting picks the entry of minimal valuation, ties broken by smallest
    (row, col).  Because the pivot divides every entry of its submatrix,
    one elimination pass per pivot suffices and the diagonal exponents come
    out weakly increasing.
    """
    ctx = a.ctx
    m, n = a.rows, a.cols
    work = a.to_rows()
    u = identity(ctx, m).to_rows()
    v = identity(ctx, n).to_rows()
    u_inv = identity(ctx, m).to_rows()
    v_inv = identity(ctx, n).to_rows()
    # invariant: a == U @ work @ V, and u_inv, v_inv invert U, V throughout
    svals: list = []
    for k in range(min(m, n)):
        best = None
        for i in range(k, m):
            for j in range(k, n):
                val = ctx.valuation(work[i][j])
                if val is INFINITY:
                    continue
                if best is None or val < best[0]:
                    best = (val, i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != k:
            work[k], work[bi] = work[bi], work[k]
            for r in range(m):  # U: swap columns k, bi
                u[r][k], u[r][bi] = u[r][bi], u[r][k]
            u_inv[k], u_inv[bi] = u_inv[bi], u_inv[k]
        if bj != k:
            for r in range(m):
                work[r][k], work[r][bj] = work[r][bj], work[r][k]
            v[k], v[bj] = v[bj], v[k]  # V: swap rows k, bj
            for r in range(n):
                v_inv[r][k], v_inv[r][bj] = v_inv[r][bj], v_inv[r][k]
        piv = work[k][k]
        # clear the pivot column: row_i -= q * row_k, U col k += q * U col i
        for i in range(k + 1, m):
            if ctx.is_zero(work[i][k]):
                continue
            q = ctx.div_exact(work[i][k], piv)
            for j in range(k, n):
                work[i][j] = work[i][j] - q * work[k][j]
            u_inv[i] = [x - q * y if y else x for x, y in zip(u_inv[i], u_inv[k])]
            for row in u:
                if row[i]:
                    row[k] = row[k] + q * row[i]
        # clear the pivot row: col_j -= q * col_k, V row k += q * V row j
        for j in range(k + 1, n):
            if ctx.is_zero(work[k][j]):
                continue
            q = ctx.div_exact(work[k][j], piv)
            for r in range(m):
                work[r][j] = work[r][j] - q * work[r][k]
            v[k] = [x + q * y if y else x for x, y in zip(v[k], v[j])]
            for row in v_inv:
                if row[k]:
                    row[j] = row[j] - q * row[k]
        # normalize the pivot to a plain pi power
        sval = int(ctx.valuation(piv))
        unit = ctx.div_exact(piv, ctx.pi_pow(sval))
        if not ctx.is_unit(unit) and not ctx.is_zero(unit - ctx.one()):
            raise AssertionError("pivot unit part is not a unit")
        if not ctx.is_zero(unit - ctx.one()):
            inv = ctx.one() / unit
            for j in range(k, n):
                work[k][j] = work[k][j] * inv
            for r in range(m):
                u[r][k] = u[r][k] * unit
                u_inv[k][r] = u_inv[k][r] * inv
        svals.append(sval)
    while len(svals) < min(m, n):
        svals.append(INFINITY)
    d, u, v, u_inv, v_inv = (tuple(x for row in rows for x in row)
                             for rows in (work, u, v, u_inv, v_inv))
    return SnfResult(MatS(ctx, m, m, u), MatS(ctx, m, n, d), MatS(ctx, n, n, v),
                     tuple(svals), MatS(ctx, m, m, u_inv), MatS(ctx, n, n, v_inv))


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

    Solves through the Smith form: free coordinates are set to zero, so the
    answer is deterministic.  ``rhs`` may have several columns.
    """
    if a.rows != rhs.rows:
        raise ValueError("shape mismatch in linear solve")
    ctx = a.ctx
    s = snf(a)
    c = s.u_inv @ rhs
    ncols = rhs.cols
    y = [[ctx.zero() for _ in range(ncols)] for _ in range(a.cols)]
    for i in range(a.rows):
        sval = s.svals[i] if i < len(s.svals) else INFINITY
        for j in range(ncols):
            target = c.at(i, j)
            if sval is INFINITY or i >= a.cols:
                if not ctx.is_zero(target):
                    return None
                continue
            if ctx.valuation(target) < sval:
                return None
            if not ctx.is_zero(target):
                y[i][j] = ctx.div_exact(target, ctx.pi_pow(int(sval)))
    y_mat = MatS(ctx, a.cols, ncols, tuple(v for row in y for v in row))
    return s.v_inv @ y_mat


def random_unimodular(n: int, seed: int, ctx: RingCtx) -> MatS:
    """Unit-determinant matrix built from bounded elementary operations.

    Deterministic in (n, seed, ctx): the same arguments always give the
    same matrix.
    """
    rng = random.Random(seed)
    m = identity(ctx, n).to_rows()
    if n == 0:
        return identity(ctx, 0)

    def unit() -> Scalar:
        if ctx.kind == "int-local":
            while True:
                k = rng.choice([-3, -2, -1, 1, 2, 3])
                if k % ctx.p != 0:
                    return ctx.from_int(k)
        c = rng.choice([1, 2, -1]) if ctx.coeff_q != 2 else 1
        d = rng.choice([-1, 0, 0, 1])
        return PolyFrac.from_poly(Poly.make([c, d], ctx.coeff_q))

    def small() -> Scalar:
        return unit() * ctx.pi_pow(rng.choice([0, 0, 1, 2]))

    for _ in range(2 * n + 4):
        op = rng.randrange(3)
        if op == 0 and n > 1:
            i, j = rng.sample(range(n), 2)
            c = small()
            for col in range(n):
                m[i][col] = m[i][col] + c * m[j][col]
        elif op == 1 and n > 1:
            i, j = rng.sample(range(n), 2)
            m[i], m[j] = m[j], m[i]
        else:
            i = rng.randrange(n)
            c = unit()
            for col in range(n):
                m[i][col] = m[i][col] * c
    return MatS(ctx, n, n, tuple(x for row in m for x in row))


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
        return all(self.ctx.residue_is_zero(e) for e in self.entries)

    def _check(self, other: "MatR"):
        if self.ctx != other.ctx:
            raise ContextMismatch("residue matrices over different contexts")

    def __matmul__(self, other: "MatR") -> "MatR":
        self._check(other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch in residue matrix product")
        ctx = self.ctx
        out = []
        for i in range(self.rows):
            for j in range(other.cols):
                acc = ctx.residue_zero()
                for k in range(self.cols):
                    acc = ctx.residue_add(acc, ctx.residue_mul(self.at(i, k), other.at(k, j)))
                out.append(acc)
        return MatR(self.ctx, self.rows, other.cols, tuple(out))

    def apply(self, vec: tuple) -> tuple:
        """Image of a residue column vector."""
        ctx = self.ctx
        out = []
        for i in range(self.rows):
            acc = ctx.residue_zero()
            for k in range(self.cols):
                acc = ctx.residue_add(acc, ctx.residue_mul(self.at(i, k), vec[k]))
            out.append(acc)
        return tuple(out)


def reduce_mat(a: MatS) -> MatR:
    """Entrywise reduction of an S-matrix modulo omega."""
    ctx = a.ctx
    return MatR(ctx, a.rows, a.cols, tuple(ctx.reduce_mod_omega(e) for e in a.entries))
