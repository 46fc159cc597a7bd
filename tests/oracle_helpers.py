"""Brute-force oracles shared by the unit tests and the acceptance suite.

Everything here decides by exhaustive enumeration over the finite quotient
ring, or recomputes by the plainest method (trial division, one normalized
operation at a time, a Smith form that carries its four transforms through
every step, a Smith form, its replay and the seeded unimodular draw on
scalar rows); slow on purpose and independent of the library's solvers
and kernels.  The library-dead ``all_morphism_params`` and
``residue_svals`` live here too.
"""

import itertools
import math
import random
from fractions import Fraction
from typing import NamedTuple

from monocat.almost_split import _exactness_failure
from monocat.category import (MonMorphism, MonObject, compose, identity_morphism,
                              rank_one)
from monocat.errors import InternalInvariantError, NotComposable, SingularMatrix
from monocat.homotopy import homotopic
from monocat.linalg import (INFINITY, MatR, MatS, SnfResult, _residue_svals,
                            identity, inverse_frac, solve_linear)
from monocat.rings import Poly, PolyFrac, RingCtx, Scalar
from monocat.sampling import class_residues, morphism_from_params


def all_morphism_params(src: MonObject, dst: MonObject):
    """Parameter tuples covering every homotopy class once lifted; refused
    over Q and beyond CLASS_BUDGET classes before any tuple exists."""
    pool = [src.ctx.lift(r) for r in class_residues(src, dst)]
    return itertools.product(pool, repeat=src.n * dst.n)


def residue_svals(a: MatR) -> tuple:
    """The Smith exponents of a residue matrix capped at t, as
    ``truncated_svals(lift, t)`` reads them for any lift of it."""
    return _residue_svals(a.ctx, [list(row) for row in a._rows()], a.ctx.t)


def exhaustive_null_homotopy(psi: MonMorphism) -> bool:
    """Scan every s0 modulo omega; psi is null-homotopic iff some s0 makes
    psi0 f - f' s0 f vanish modulo omega (s1 is then forced)."""
    ctx = psi.ctx
    f, g = psi.src, psi.dst
    t = ctx.t
    base = psi.psi0 @ f.mat
    pool = [ctx.lift(r) for r in ctx.residue_elements()]
    cells = g.n * f.n
    for combo in itertools.product(pool, repeat=cells):
        s0 = MatS(ctx, g.n, f.n, combo)
        rem = base - g.mat @ s0 @ f.mat
        if all(ctx.valuation(e) >= t for e in rem.entries):
            return True
    return False


def exhaustive_iso_search(psi: MonMorphism) -> bool:
    """Look for a two-sided inverse up to homotopy among all parameter
    tuples modulo omega (these cover every homotopy class)."""
    src, dst = psi.src, psi.dst
    id_src = identity_morphism(src)
    id_dst = identity_morphism(dst)
    for params in all_morphism_params(dst, src):
        phi = morphism_from_params(dst, src, params)
        if homotopic(compose(phi, psi), id_src) \
                and homotopic(compose(psi, phi), id_dst):
            return True
    return False


def submatrix(a: MatS, row_idx, col_idx) -> MatS:
    return MatS(a.ctx, len(row_idx), len(col_idx),
                tuple(a.at(i, j) for i in row_idx for j in col_idx))


def kron(a: MatS, b: MatS) -> MatS:
    """Kronecker product, consistent with row-major vectorization:
    vec(A @ X @ B) == kron(A, transpose(B)) @ vec(X)."""
    return MatS(a.ctx, a.rows * b.rows, a.cols * b.cols,
                tuple(a.at(i, j) * b.at(r, c) for i in range(a.rows)
                      for r in range(b.rows) for j in range(a.cols)
                      for c in range(b.cols)))


def commuting_system(src: MonObject, dst: MonObject) -> list:
    """The blocks [A1, A0] with A1 @ vec(chi1) + A0 @ vec(chi0) == 0 exactly
    when dst.mat @ chi1 == chi0 @ src.mat, for chi: src -> dst and row-major
    vec."""
    ctx, n = src.ctx, src.n
    src_t = MatS(ctx, n, n, tuple(src.mat.at(i, j) for j in range(n)
                                  for i in range(n)))
    return [-kron(dst.mat, identity(ctx, n)),
            kron(identity(ctx, dst.n), src_t)]


def reference_factor_strictly(through: MonMorphism, target: MonMorphism):
    """A morphism chi with through o chi == target exactly, or None.

    The unknowns are the entries of both components of chi; the commuting
    condition that makes chi a morphism and the two composition equations
    are stacked into one kron-built system over S, solved through its own
    Smith form on every call.  The system is assembled one entry at a
    time (``block_by_entries``), with no assembly code of the library.
    """
    if target.dst != through.dst:
        raise NotComposable("factorization endpoints disagree")
    ctx, src = through.ctx, target.src
    p, q, r = through.src.n, src.n, through.dst.n
    m = p * q
    iq = identity(ctx, q)
    a = block_by_entries(ctx, [commuting_system(src, through.src),
                               [kron(through.psi1, iq), None],
                               [None, kron(through.psi0, iq)]],
                         [m, r * q, r * q], [m, m])
    rhs = MatS(ctx, a.rows, 1, (ctx.zero(),) * m + target.psi1.entries
               + target.psi0.entries)
    sol = solve_linear(a, rhs)
    if sol is None:
        return None
    chi = MonMorphism(src, through.src, MatS(ctx, p, q, sol.entries[:m]),
                      MatS(ctx, p, q, sol.entries[m:]))
    assert compose(through, chi) == target
    return chi


def is_split_epi(h: MonMorphism) -> bool:
    return reference_factor_strictly(h, identity_morphism(h.dst)) is not None


def per_class_verify(seq):
    """``verify_right_almost_split`` deciding every class with its own
    ``reference_factor_strictly(seq.g, h)`` call and ``is_split_epi``, so
    each class builds and eliminates its own stacked system; same
    (lines, ok) contract."""
    ctx = seq.end.ctx
    label = ",".join(str(v) for v in seq.end.svals)
    reason = _exactness_failure(seq.tau_f, seq.middle, seq.end, seq.theta,
                                seq.g)
    if reason is None and is_split_epi(seq.g):
        reason = "g is a split epimorphism"
    if reason is not None:
        return [f"STRUCT {reason} FAIL", f"ARSS {label} {ctx.t} FAIL"], False
    lines = []
    ok = True
    for sp in range(ctx.t + 1):
        test = rank_one(ctx, sp)
        classes = factored = 0
        good = True
        for params in all_morphism_params(test, seq.end):
            h = morphism_from_params(test, seq.end, params)
            classes += 1
            chi = reference_factor_strictly(seq.g, h)
            factored += chi is not None
            good = good and (chi is not None) != is_split_epi(h)
        lines.append(f"TEST s'={sp} classes={classes} factored={factored} "
                     f"{'PASS' if good else 'FAIL'}")
        ok = ok and good
    lines.append(f"ARSS {label} {ctx.t} {'PASS' if ok else 'FAIL'}")
    return lines, ok


class EagerSnf(NamedTuple):
    u: MatS
    d: MatS
    v: MatS
    svals: tuple
    u_inv: MatS
    v_inv: MatS


def eager_snf(a: MatS) -> EagerSnf:
    """``linalg.snf`` carrying U, V, U^-1 and V^-1 through every elimination
    step, with the same pivots, zero skips and scalings."""
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
            if not work[i][k]:
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
            if not work[k][j]:
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
        if not ctx.is_unit(unit):
            raise AssertionError("pivot unit part is not a unit")
        if unit != ctx.one():
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
    return EagerSnf(MatS(ctx, m, m, u), MatS(ctx, m, n, d), MatS(ctx, n, n, v),
                    tuple(svals), MatS(ctx, m, m, u_inv), MatS(ctx, n, n, v_inv))


def det(a: MatS) -> Scalar:
    """Exact determinant by elimination."""
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
        pivot_row = next((i for i in range(k, n) if work[i][k]), None)
        if pivot_row is None:
            return ctx.zero()
        if pivot_row != k:
            work[k], work[pivot_row] = work[pivot_row], work[k]
            sign_flip = not sign_flip
        piv = work[k][k]
        result = result * piv
        for i in range(k + 1, n):
            if not work[i][k]:
                continue
            factor = work[i][k] / piv
            for j in range(k, n):
                work[i][j] = work[i][j] - factor * work[k][j]
    return -result if sign_flip else result


def adjugate(a: MatS) -> MatS:
    """det(a) * a^{-1}."""
    d = det(a)
    if not d:
        raise SingularMatrix("adjugate via inverse needs a nonzero determinant")
    return inverse_frac(a).scale(d)


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def naive_matmul(a: MatS, b: MatS) -> MatS:
    """Matrix product normalizing after every multiply and every add."""
    ctx = a.ctx
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = ctx.zero()
            for k in range(a.cols):
                acc = acc + a.at(i, k) * b.at(k, j)
            out.append(acc)
    return MatS(ctx, a.rows, b.cols, tuple(out))


# Matrix operations one Fraction at a time, on the entries alone: the
# reference for the cleared form of linalg.MatS over Z_(p).

def entrywise(ctx, rows: int, cols: int, values) -> MatS:
    """A matrix built from its entries, never from a cleared form."""
    return MatS(ctx, rows, cols, tuple(values))


def entrywise_add(a: MatS, b: MatS) -> MatS:
    return entrywise(a.ctx, a.rows, a.cols, (x + y for x, y in zip(a.entries, b.entries)))


def entrywise_neg(a: MatS) -> MatS:
    return entrywise(a.ctx, a.rows, a.cols, (-x for x in a.entries))


def entrywise_scale(a: MatS, c: Scalar) -> MatS:
    return entrywise(a.ctx, a.rows, a.cols, (c * x for x in a.entries))


def entrywise_in_ring(a: MatS) -> bool:
    return all(a.ctx.in_ring(x) for x in a.entries)


def entrywise_reduce(a: MatS) -> MatR:
    ctx = a.ctx
    return MatR(ctx, a.rows, a.cols, tuple(ctx.reduce_mod_omega(x) for x in a.entries))


def block_by_entries(ctx, grid, heights, widths) -> MatS:
    """The block matrix with the given row heights and column widths, read
    one entry at a time with ``at``; None cells are zero."""
    out = []
    for brow, h in zip(grid, heights):
        for i in range(h):
            for b, w in zip(brow, widths):
                out.extend(ctx.zero() if b is None else b.at(i, j) for j in range(w))
    return entrywise(ctx, sum(heights), sum(widths), out)


def reference_replay(ctx: RingCtx, size: int, ops: tuple, *, inverse: bool,
                     transpose: bool) -> MatS:
    """A Smith transform, built by replaying recorded steps on the identity.

    With ``inverse`` the steps apply as recorded: row steps give U^-1, and
    column steps, on columns, give V^-1.  Without it each step is undone on
    the other side: U on columns, V on rows.  Lines are rows, or columns
    when ``transpose``.  Zero source entries are skipped.  The replay on
    scalar lines, for every ring: the reference for ``linalg._replay``.
    """
    lines = identity(ctx, size).to_rows()
    for kind, a, b, c in ops:
        if kind == "swap":
            lines[a], lines[b] = lines[b], lines[a]
        elif kind == "scale":
            f = c if inverse else b
            lines[a] = [x * f for x in lines[a]]
        elif inverse:  # line a -= c * line b
            lines[a] = [x - c * y if y else x for x, y in zip(lines[a], lines[b])]
        else:  # line b += c * line a
            lines[b] = [x + c * y if y else x for x, y in zip(lines[b], lines[a])]
    if transpose:
        lines = zip(*lines)
    return MatS(ctx, size, size, tuple(x for line in lines for x in line))


def random_unimodular_ref(n: int, seed: int, ctx: RingCtx) -> MatS:
    """``linalg.random_unimodular`` on scalar rows, one normalized scalar
    per entry per elementary operation, each draw lifted to a scalar; the
    same rng calls in the same order, so the same matrix."""
    if n == 0:
        return identity(ctx, 0)
    rng = random.Random(seed)
    m = identity(ctx, n).to_rows()
    for _ in range(2 * n + 4):
        op = rng.randrange(3)
        if op == 0 and n > 1:
            i, j = rng.sample(range(n), 2)
            c = ctx.lift(ctx._random_unit(rng)) * ctx.pi_pow(rng.choice([0, 0, 1, 2]))
            for col in range(n):
                m[i][col] = m[i][col] + c * m[j][col]
        elif op == 1 and n > 1:
            i, j = rng.sample(range(n), 2)
            m[i], m[j] = m[j], m[i]
        else:
            i = rng.randrange(n)
            c = ctx.lift(ctx._random_unit(rng))
            for col in range(n):
                m[i][col] = m[i][col] * c
    return MatS(ctx, n, n, tuple(x for row in m for x in row))


def reference_transforms(s: SnfResult) -> dict:
    """U, V, U^-1 and V^-1 of a Smith form, each by ``reference_replay``."""
    ctx, m, n = s.d.ctx, s.d.rows, s.d.cols
    return {"u": reference_replay(ctx, m, s.row_ops, inverse=False, transpose=True),
            "u_inv": reference_replay(ctx, m, s.row_ops, inverse=True, transpose=False),
            "v": reference_replay(ctx, n, s.col_ops, inverse=False, transpose=False),
            "v_inv": reference_replay(ctx, n, s.col_ops, inverse=True, transpose=True)}


def reference_snf(a: MatS) -> SnfResult:
    """Deterministic Smith normal form over S.

    Pivoting picks the entry of minimal valuation, ties broken by smallest
    (row, col).  Because the pivot divides every entry of its submatrix,
    one elimination pass per pivot suffices and the diagonal exponents come
    out weakly increasing.  The pivot row is cleared by recording column
    steps and zeroing the row, as the pivot is then alone in its column.
    Only the work matrix is eliminated on scalar work rows, for every ring:
    the reference for ``linalg.snf``.
    """
    ctx = a.ctx
    m, n = a.rows, a.cols
    work = a.to_rows()
    row_ops: list = []
    col_ops: list = []
    svals: list = []
    for k in range(min(m, n)):
        best = min(((ctx.valuation(work[i][j]), i, j) for i in range(k, m)
                    for j in range(k, n) if work[i][j]), default=None)
        if best is None:
            break
        _, bi, bj = best
        if bi != k:
            work[k], work[bi] = work[bi], work[k]
            row_ops.append(("swap", k, bi, None))
        if bj != k:
            for r in range(m):
                work[r][k], work[r][bj] = work[r][bj], work[r][k]
            col_ops.append(("swap", k, bj, None))
        piv = work[k][k]
        # clear the pivot column: row_i -= q * row_k
        for i in range(k + 1, m):
            if not work[i][k]:
                continue
            q = ctx.div_exact(work[i][k], piv)
            for j in range(k, n):
                work[i][j] = work[i][j] - q * work[k][j]
            row_ops.append(("add", i, k, q))
        # clear the pivot row: col_j -= q * col_k, which changes only row k
        for j in range(k + 1, n):
            if work[k][j]:
                col_ops.append(("add", j, k, ctx.div_exact(work[k][j], piv)))
                work[k][j] = ctx.zero()
        # normalize the pivot to a plain pi power
        sval = int(ctx.valuation(piv))
        work[k][k] = ctx.pi_pow(sval)
        unit = ctx.div_exact(piv, work[k][k])
        if not ctx.is_unit(unit):
            raise InternalInvariantError("pivot unit part is not a unit")
        if unit != ctx.one():
            row_ops.append(("scale", k, unit, ctx.one() / unit))
        svals.append(sval)
    while len(svals) < min(m, n):
        svals.append(INFINITY)
    return SnfResult(MatS(ctx, m, n, tuple(x for row in work for x in row)),
                     tuple(svals), tuple(row_ops), tuple(col_ops))


def entrywise_truncated_svals(a: MatS, e: int) -> tuple:
    """The Smith exponents of a capped at e, from residues reduced one
    entry at a time with ``RingCtx._reduce``."""
    ctx = a.ctx
    return _residue_svals(ctx, [[ctx._reduce(x, e) for x in row]
                                for row in a.to_rows()], e)


def capped_svals(a: MatS, e: int) -> tuple:
    """The Smith exponents of a capped at e, from the eager Smith form."""
    return tuple(min(s, e) for s in eager_snf(a).svals)


def is_canonical_cleared(a: MatS) -> bool:
    """Whether a's cleared form is integer numerators, one per entry, over
    a positive denominator sharing no factor with all of them."""
    nums, den = a._ints()
    return (len(nums) == a.rows * a.cols and den > 0
            and all(type(n) is int for n in nums) and math.gcd(den, *nums) == 1)


def per_term_residue_matmul(a: MatR, b: MatR) -> MatR:
    """Residue matrix product reducing modulo omega after every multiply
    and every add."""
    ctx = a.ctx
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = ctx.residue_zero()
            for k in range(a.cols):
                acc = ctx.residue_add(acc, ctx.residue_mul(a.at(i, k), b.at(k, j)))
            out.append(acc)
    return MatR(ctx, a.rows, b.cols, tuple(out))


# Polynomial arithmetic rebuilt through Poly.make, which canonicalizes every
# coefficient and trims, and fractions through the full gcd path.

def _coeff(f: Poly, i: int):
    return f.coeffs[i] if i < len(f.coeffs) else 0


def _inv(c, q):
    return 1 / Fraction(c) if q is None else pow(c, -1, q)


def poly_add_ref(f: Poly, g: Poly) -> Poly:
    n = max(len(f.coeffs), len(g.coeffs))
    return Poly.make([_coeff(f, i) + _coeff(g, i) for i in range(n)], f.q)


def poly_neg_ref(f: Poly) -> Poly:
    return Poly.make([-c for c in f.coeffs], f.q)


def poly_mul_ref(f: Poly, g: Poly) -> Poly:
    n = len(f.coeffs) + len(g.coeffs)
    return Poly.make([sum(_coeff(f, i) * _coeff(g, k - i) for i in range(k + 1))
                      for k in range(n)], f.q)


def poly_divmod_ref(f: Poly, g: Poly) -> tuple:
    quo, rem = Poly.make([], f.q), f
    while rem and rem.degree >= g.degree:
        c = rem.coeffs[-1] * _inv(g.coeffs[-1], f.q)
        term = Poly.make([0] * (rem.degree - g.degree) + [c], f.q)
        quo = poly_add_ref(quo, term)
        rem = poly_add_ref(rem, poly_neg_ref(poly_mul_ref(term, g)))
    return quo, rem


def poly_monic_ref(f: Poly) -> Poly:
    if not f:
        return f
    inv = _inv(f.coeffs[-1], f.q)
    return Poly.make([c * inv for c in f.coeffs], f.q)


def poly_gcd_ref(f: Poly, g: Poly) -> Poly:
    while g:
        f, g = g, poly_divmod_ref(f, g)[1]
    return poly_monic_ref(f)


def polyfrac_ref(num: Poly, den: Poly) -> PolyFrac:
    """num/den in lowest terms with monic denominator, always through gcd."""
    if not num:
        return PolyFrac(num, Poly.make([1], num.q))
    g = poly_gcd_ref(num, den)
    num, den = poly_divmod_ref(num, g)[0], poly_divmod_ref(den, g)[0]
    inv = _inv(den.coeffs[-1], num.q)
    return PolyFrac(Poly.make([c * inv for c in num.coeffs], num.q),
                    Poly.make([c * inv for c in den.coeffs], num.q))


# Q[x] on plain lists of Fractions, lowest degree first and no trailing
# zero: long division and Euclid with nothing of Poly inside.

def frac_list_trim(cs: list) -> list:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def frac_list_mul(f: list, g: list) -> list:
    out = [Fraction(0)] * max(0, len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return frac_list_trim(out)


def frac_list_divmod(f: list, g: list) -> tuple[list, list]:
    rem = list(f)
    quo = [Fraction(0)] * max(0, len(f) - len(g) + 1)
    while len(rem) >= len(g):
        k = len(rem) - len(g)
        c = rem[-1] / g[-1]
        quo[k] = c
        for j, b in enumerate(g):
            rem[k + j] -= c * b
        frac_list_trim(rem)
    return frac_list_trim(quo), rem


def frac_list_gcd(f: list, g: list) -> list:
    """Monic gcd by Euclid over Fraction coefficients."""
    while g:
        f, g = g, frac_list_divmod(f, g)[1]
    return [c / f[-1] for c in f]


def frac_list_lowest_terms(num: list, den: list) -> tuple[list, list]:
    """num/den with the gcd divided out and a monic denominator."""
    g = frac_list_gcd(num, den)
    num, den = frac_list_divmod(num, g)[0], frac_list_divmod(den, g)[0]
    lead = den[-1]
    return [c / lead for c in num], [c / lead for c in den]


# F_q[x] on plain lists of ints in [0, q), lowest degree first and no
# trailing zero: long division and Euclid mod q with nothing of Poly inside.

def fq_list_mul(f: list, g: list, q: int) -> list:
    out = [0] * max(0, len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % q
    return frac_list_trim(out)


def fq_list_divmod(f: list, g: list, q: int) -> tuple[list, list]:
    rem, inv = list(f), pow(g[-1], -1, q)
    quo = [0] * max(0, len(f) - len(g) + 1)
    while len(rem) >= len(g):
        k = len(rem) - len(g)
        c = rem[-1] * inv % q
        quo[k] = c
        for j, b in enumerate(g):
            rem[k + j] = (rem[k + j] - c * b) % q
        frac_list_trim(rem)
    return frac_list_trim(quo), rem


def fq_list_monic(f: list, q: int) -> list:
    inv = pow(f[-1], -1, q) if f else 1
    return [c * inv % q for c in f]


def fq_list_gcd(f: list, g: list, q: int) -> list:
    """Monic gcd by Euclid mod q."""
    while g:
        f, g = g, fq_list_divmod(f, g, q)[1]
    return fq_list_monic(f, q)


def fq_list_lowest_terms(num: list, den: list, q: int) -> tuple[list, list]:
    """num/den with the gcd divided out and a monic denominator."""
    g = fq_list_gcd(num, den, q)
    num, den = fq_list_divmod(num, g, q)[0], fq_list_divmod(den, g, q)[0]
    inv = pow(den[-1], -1, q)
    return [c * inv % q for c in num], fq_list_monic(den, q)


def is_canonical_poly(p: Poly) -> bool:
    """The stored form: den > 0 (1 over F_q), gcd(den, *ints) = 1 and no
    trailing zero; over F_q every int in [0, q)."""
    if p.ints and not p.ints[-1]:
        return False
    if p.q is not None:
        return p.den == 1 and all(0 <= c < p.q for c in p.ints)
    return p.den > 0 and math.gcd(p.den, *p.ints) == 1


def dot_ref(pairs, ctx) -> PolyFrac:
    """Sum of a * b over pairs of PolyFracs, the numerators and
    denominators multiplied and added by the references above and the sum
    brought to lowest terms once, through ``polyfrac_ref``."""
    num, den = Poly.make([], ctx.coeff_q), Poly.make([1], ctx.coeff_q)
    for a, b in pairs:
        tn = poly_mul_ref(a.numerator, b.numerator)
        td = poly_mul_ref(a.denominator, b.denominator)
        num = poly_add_ref(poly_mul_ref(num, td), poly_mul_ref(tn, den))
        den = poly_mul_ref(den, td)
    return polyfrac_ref(num, den)


def map_coordinates_ref(ctx, m, n, entries: tuple) -> tuple:
    """Coordinates of a map of R-modules m -> n in the cyclic decomposition
    of the Hom group, by the scalar route: lift each entry to S, divide
    exactly by pi^(max(e'_j - e_i, 0)) in Frac(S), reduce modulo omega and
    truncate modulo pi^(min(e_i, e'_j))."""
    coords = []
    idx = 0
    for ej in n.exps:
        for ei in m.exps:
            r = entries[idx]
            idx += 1
            if not r:
                coords.append(ctx.residue_zero())
                continue
            q = ctx.div_exact(ctx.lift(r), ctx.pi_pow(max(ej - ei, 0)))
            coords.append(ctx.residue_truncate(ctx.reduce_mod_omega(q),
                                               min(ei, ej)))
    return tuple(coords)
