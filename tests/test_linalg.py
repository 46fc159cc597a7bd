"""Matrices, Smith normal form, and the linear solvers.

The Smith form is checked against two independent oracles: valuations of
determinantal divisors (gcds of k x k minors) and brute-force kernel counts
over the finite quotient ring.
"""

import itertools
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from monocat.errors import ContextMismatch, SingularMatrix
from monocat.linalg import (INFINITY, MatR, MatS, add_products, block, diag_pi,
                            identity, inverse_frac, mat, random_unimodular,
                            reduce_mat, snf, solve_linear,
                            solve_sandwich_congruence, sums_equal,
                            truncated_svals, zeros)
from monocat.rings import Poly, RingCtx
from oracle_helpers import (adjugate, block_by_entries, det,
                            per_term_residue_matmul, residue_svals, submatrix)

Z2 = RingCtx.int_local(2, 2)
Z2_3 = RingCtx.int_local(2, 3)
Z3 = RingCtx.int_local(3, 2)
KX = RingCtx.poly_local(2)
F2X = RingCtx.poly_local(2, q=2)


def minors_valuation_oracle(a: MatS) -> tuple:
    """Elementary-divisor exponents via determinantal divisors.

    v(d_k) is the minimum valuation over all k x k minors; the k-th
    exponent is v(d_k) - v(d_{k-1}).  Slow (all minors) but independent
    of the elimination code.
    """
    ctx = a.ctx
    n = min(a.rows, a.cols)
    prev = 0
    out = []
    for k in range(1, n + 1):
        best = INFINITY
        for rset in itertools.combinations(range(a.rows), k):
            for cset in itertools.combinations(range(a.cols), k):
                v = ctx.valuation(det(submatrix(a, rset, cset)))
                if v < best:
                    best = v
        if best is INFINITY:
            out.extend([INFINITY] * (n - len(out)))
            return tuple(out)
        out.append(best - prev)
        prev = best
    return tuple(out)


def cofactor_det(a: MatS):
    ctx = a.ctx
    n = a.rows
    if n == 0:
        return ctx.one()
    if n == 1:
        return a.at(0, 0)
    acc = ctx.zero()
    cols = list(range(1, n))
    for i in range(n):
        entry = a.at(i, 0)
        if not entry:
            continue
        rows = [r for r in range(n) if r != i]
        minor = cofactor_det(submatrix(a, rows, cols))
        term = entry * minor
        acc = acc + (term if i % 2 == 0 else -term)
    return acc


def assert_transform_inverses(res):
    """The inverses snf tracks alongside U and V are exact two-sided ones."""
    ctx, m, n = res.u.ctx, res.u.rows, res.v.rows
    assert (res.u @ res.u_inv).entries == identity(ctx, m).entries
    assert (res.u_inv @ res.u).entries == identity(ctx, m).entries
    assert (res.v_inv @ res.v).entries == identity(ctx, n).entries
    assert (res.v @ res.v_inv).entries == identity(ctx, n).entries
    assert res.u_inv.in_ring() and res.v_inv.in_ring()


def test_snf_frozen_example():
    a = mat(Z2, [[2, 1], [0, -2]])
    res = snf(a)
    assert res.svals == (0, 2)
    assert minors_valuation_oracle(a) == (0, 2)
    assert_transform_inverses(res)


def test_snf_frozen_example_kernel_count():
    # kernel size of the matrix acting on (Z/8)^2 determines the exponents:
    # 2^min(0,3) * 2^min(2,3) = 4
    a = mat(Z2_3, [[2, 1], [0, -2]])
    count = 0
    for x0 in range(8):
        for x1 in range(8):
            if (2 * x0 + x1) % 8 == 0 and (-2 * x1) % 8 == 0:
                count += 1
    assert count == 4
    res = snf(a)
    assert res.svals == (0, 2)
    assert_transform_inverses(res)


def test_snf_factorization_and_transform_units():
    rng = random.Random(11)
    for trial in range(40):
        m = rng.randrange(1, 4)
        n = rng.randrange(1, 4)
        a = MatS(Z2, m, n, tuple(Fraction(rng.randrange(-8, 9))
                                 for _ in range(m * n)))
        res = snf(a)
        assert (res.u @ res.d @ res.v).entries == a.entries
        assert Z2.is_unit(det(res.u))
        assert Z2.is_unit(det(res.v))
        assert_transform_inverses(res)
        # diagonal of pi powers, off-diagonal zero
        for i in range(m):
            for j in range(n):
                e = res.d.at(i, j)
                if i != j:
                    assert not e
        finite = [s for s in res.svals if s is not INFINITY]
        assert finite == sorted(finite)
        assert res.svals == minors_valuation_oracle(a)


def test_snf_poly_ring():
    rng = random.Random(5)
    for trial in range(15):
        entries = []
        for _ in range(4):
            entries.append(Poly.make([rng.randrange(-2, 3) for _ in range(3)], None))
        a = mat(KX, [entries[:2], entries[2:]])
        res = snf(a)
        assert (res.u @ res.d @ res.v).entries == a.entries
        assert KX.is_unit(det(res.u))
        assert res.svals == minors_valuation_oracle(a)
        assert_transform_inverses(res)


def test_snf_singular_tail():
    cases = [(mat(Z2, [[2, 2], [2, 2]]), (1, INFINITY)),
             (zeros(Z2, 2, 3), (INFINITY, INFINITY)),
             (mat(Z2, [[2, 4, 6], [1, 2, 3]]), (0, INFINITY)),
             (mat(Z2, [[4, 2], [6, 3], [2, 1]]), (0, INFINITY)),
             (mat(F2X, [["x", "x^2", "1"], ["x^2", "x^3", "x"]]), (0, INFINITY))]
    for a, svals in cases:
        res = snf(a)
        assert res.svals == svals
        assert (res.u @ res.d @ res.v).entries == a.entries
        assert_transform_inverses(res)


def test_det_matches_cofactor_expansion():
    rng = random.Random(3)
    for trial in range(20):
        a = MatS(Z3, 3, 3, tuple(Fraction(rng.randrange(-5, 6)) for _ in range(9)))
        assert det(a) == cofactor_det(a)


def test_inverse_and_adjugate_identity():
    rng = random.Random(7)
    found = 0
    while found < 10:
        a = MatS(Z2, 3, 3, tuple(Fraction(rng.randrange(-5, 6)) for _ in range(9)))
        d = det(a)
        if not d:
            continue
        found += 1
        inv = inverse_frac(a)
        assert (a @ inv).entries == identity(Z2, 3).entries
        adj = adjugate(a)
        prod = a @ adj
        for i in range(3):
            for j in range(3):
                assert prod.at(i, j) == (d if i == j else 0)


def test_inverse_singular_raises():
    with pytest.raises(SingularMatrix):
        inverse_frac(mat(Z2, [[1, 1], [1, 1]]))


def test_sandwich_congruence_against_search():
    ctx = Z2
    t = ctx.t
    for dl in range(t + 1):
        for dr in range(t + 1):
            for b in ctx.residue_elements():
                bm = MatS(ctx, 1, 1, (ctx.lift(b),))
                got = solve_sandwich_congruence([dl], [dr], bm, ctx)
                want = None
                for x in ctx.residue_elements():
                    lhs = ctx.pi_pow(dl) * ctx.lift(x) * ctx.pi_pow(dr) - ctx.lift(b)
                    if ctx.valuation(lhs) >= t:
                        want = x
                        break
                assert (got is None) == (want is None), (dl, dr, b)
                if got is not None:
                    lhs = ctx.pi_pow(dl) * got.at(0, 0) * ctx.pi_pow(dr) - ctx.lift(b)
                    assert ctx.valuation(lhs) >= t


def test_sandwich_congruence_matrix_case():
    ctx = RingCtx.int_local(2, 3)
    b = mat(ctx, [[4, 0], [4, 8]])
    x = solve_sandwich_congruence([1, 1], [1, 0], b, ctx)
    assert x is not None
    lhs = diag_pi(ctx, [1, 1]) @ x @ diag_pi(ctx, [1, 0])
    for i in range(2):
        for j in range(2):
            assert ctx.valuation(lhs.at(i, j) - b.at(i, j)) >= 3
    assert solve_sandwich_congruence([1, 1], [1, 1], mat(ctx, [[2, 0], [0, 0]]), ctx) is None


def test_solve_linear_solvable_and_not():
    a = mat(Z2, [[2, 0], [0, 1]])
    rhs = mat(Z2, [[2], [3]])
    x = solve_linear(a, rhs)
    assert x is not None and (a @ x).entries == rhs.entries
    assert solve_linear(mat(Z2, [[2]]), mat(Z2, [[1]])) is None
    # overdetermined: consistent and inconsistent right-hand sides
    tall = mat(Z2, [[1], [1]])
    assert solve_linear(tall, mat(Z2, [[1], [2]])) is None
    x2 = solve_linear(tall, mat(Z2, [[3], [3]]))
    assert x2 is not None and (tall @ x2).entries == (Fraction(3), Fraction(3))


def test_solve_linear_random_consistent_systems():
    rng = random.Random(23)
    for trial in range(25):
        m = rng.randrange(1, 4)
        n = rng.randrange(1, 4)
        a = MatS(Z2, m, n, tuple(Fraction(rng.randrange(-6, 7)) for _ in range(m * n)))
        x0 = MatS(Z2, n, 1, tuple(Fraction(rng.randrange(-4, 5)) for _ in range(n)))
        rhs = a @ x0
        x = solve_linear(a, rhs)
        assert x is not None
        assert (a @ x).entries == rhs.entries
        assert x.in_ring()


def test_random_unimodular_is_deterministic_and_unimodular():
    for ctx in (Z2, Z3, F2X, KX):
        for seed in (0, 1, 99):
            u1 = random_unimodular(3, seed, ctx)
            u2 = random_unimodular(3, seed, ctx)
            assert u1.entries == u2.entries
            assert ctx.is_unit(det(u1))
            assert u1.in_ring()


def test_block_assembly():
    a = identity(Z2, 2)
    b = mat(Z2, [[3], [4]])
    m = block(Z2, [[a, b], [None, identity(Z2, 1)]])
    assert (m.rows, m.cols) == (3, 3)
    assert m.at(0, 2) == 3 and m.at(1, 2) == 4
    assert m.at(2, 0) == 0 and m.at(2, 2) == 1


F3X = RingCtx.poly_local(2, q=3)
BLOCK_RINGS = [
    (Z2, [Fraction(n, d) for n in (-3, 0, 1, 2, 5) for d in (1, 2, 3)]),
    (F3X, [F3X.parse_scalar(s) for s in
           ("0", "1", "2", "x", "1 + x", "2*x^2", "(1 + x)/(1 - x)", "x/(1 + 2*x)")])]


@st.composite
def blocks(draw, ctx, pool, rows, cols):
    """A rows x cols block in one of two layouts: a product (over Z_(2)
    still in cleared form, with no entries yet) or a matrix built from
    entries."""
    def entries(r, c):
        return MatS(ctx, r, c, tuple(draw(st.sampled_from(pool)) for _ in range(r * c)))
    if draw(st.booleans()):
        k = draw(st.integers(0, 2))
        return entries(rows, k) @ entries(k, cols)
    return entries(rows, cols)


@st.composite
def block_grids(draw):
    """A ring, a grid of blocks and None cells, its row heights and its
    column widths.  Heights and widths start at 0, so 0-row and 0-col
    blocks occur; every row and every column holds a block."""
    ctx, pool = draw(st.sampled_from(BLOCK_RINGS))
    heights = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    widths = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    filled = [[draw(st.integers(0, 2)) > 0 for _ in widths] for _ in heights]
    for row in filled:
        if not any(row):
            row[draw(st.integers(0, len(widths) - 1))] = True
    for j in range(len(widths)):
        if not any(row[j] for row in filled):
            filled[draw(st.integers(0, len(heights) - 1))][j] = True
    grid = [[draw(blocks(ctx, pool, h, w)) if f else None for f, w in zip(row, widths)]
            for row, h in zip(filled, heights)]
    return ctx, grid, heights, widths


def assert_same_matrix(got: MatS, want: MatS):
    assert (got.ctx, got.rows, got.cols) == (want.ctx, want.rows, want.cols)
    assert got.entries == want.entries and got == want


@settings(max_examples=200, deadline=None)
@given(block_grids())
def test_block_matches_entry_by_entry(case):
    """``block`` on the grid, stacks (one block row or one block column)
    included, against a reference that reads every entry with ``at``.  A
    row made only of 0 x 0 blocks is refused as ``hstack of nothing``."""
    ctx, grid, heights, widths = case
    empty_row = not any(widths)
    if empty_row and 0 in heights:
        with pytest.raises(ValueError, match="^hstack of nothing$"):
            block(ctx, grid)
    else:
        assert_same_matrix(block(ctx, grid), block_by_entries(ctx, grid, heights, widths))


def test_block_errors_keep_their_messages():
    a, b = identity(Z2, 2), mat(Z2, [[1, 2, 3]])
    cases = [(lambda: block(Z2, [[a, None], [None, None]]),
              "block row with no blocks to infer height from"),
             (lambda: block(Z2, [[a, None], [b, None]]),
              "block column with no blocks to infer width from"),
             (lambda: block(Z2, [[a, b], [b, None]]), "inconsistent block shape")]
    for assemble, message in cases:
        with pytest.raises(ValueError) as info:
            assemble()
        assert str(info.value) == message


def test_block_refuses_a_ragged_grid():
    a, z = identity(Z2, 2), zeros(Z2, 2, 0)
    for grid in ([[a, a], [a]], [[a], [a, a]], [[a, z], [a]], [[a, None], [a]]):
        with pytest.raises(ValueError) as info:
            block(Z2, grid)
        assert str(info.value) == "inconsistent block shape"


def test_reduce_mat():
    a = mat(Z2, [[5, -1], [4, Fraction(1, 3)]])
    r = reduce_mat(a)
    assert r.entries == (1, 3, 0, 3)


RESIDUE_RINGS = [RingCtx.int_local(p, t) for p in (2, 3) for t in (1, 2, 3)] + \
    [RingCtx.poly_local(t, q=q) for q in (2, 3) for t in (1, 2, 3)]


@pytest.mark.parametrize("ctx", RESIDUE_RINGS,
                         ids=lambda c: f"{c.kind}-{c.residue_field_size}-t{c.t}")
def test_residue_products_match_per_term_reduction(ctx):
    """MatR products reduce once per entry; the reference reduces after
    every term.  Every vector of R^n is a row of the left factor, a column
    of the right factor and an argument of apply."""
    rng = random.Random(f"{ctx!r}")
    pool = list(ctx.residue_elements())
    for n in (1, 2):
        vectors = list(itertools.product(pool, repeat=n))
        rows = MatR(ctx, len(vectors), n, tuple(x for v in vectors for x in v))
        cols = MatR(ctx, n, len(vectors), tuple(v[i] for i in range(n) for v in vectors))
        for _ in range(3):
            m = MatR(ctx, n, n, tuple(rng.choice(pool) for _ in range(n * n)))
            assert rows @ m == per_term_residue_matmul(rows, m)
            assert m @ cols == per_term_residue_matmul(m, cols)
            for v in vectors:
                col = MatR(ctx, n, 1, v)
                assert m.apply(v) == per_term_residue_matmul(m, col).entries


@pytest.mark.parametrize("ctx", RESIDUE_RINGS,
                         ids=lambda c: f"{c.kind}-{c.residue_field_size}-t{c.t}")
def test_residue_svals_are_the_capped_smith_exponents(ctx):
    # any shape, including an empty one; the lift is the canonical one
    rng = random.Random(f"svals {ctx!r}")
    pool = list(ctx.residue_elements())
    for rows, cols in [(0, 0), (1, 3), (3, 1)] + [(k, k) for k in (1, 2, 3, 4)] * 5:
        r = MatR(ctx, rows, cols, tuple(rng.choice(pool) for _ in range(rows * cols)))
        lift = MatS(ctx, rows, cols, tuple(ctx.lift(x) for x in r.entries))
        capped = tuple(min(s, ctx.t) for s in snf(lift).svals)
        assert residue_svals(r) == capped == truncated_svals(lift, ctx.t)


def test_product_errors_keep_their_messages():
    a = mat(Z2, [[1, 2, 3], [4, 5, 6]])
    b = identity(Z2, 2)
    foreign = identity(Z3, 2)
    cases = [(lambda: a @ b, ValueError,
              "shape mismatch in matrix product: 2x3 times 2x2"),
             (lambda: b @ foreign, ContextMismatch,
              "matrices over different ring contexts"),
             (lambda: add_products(b, b, foreign, foreign), ContextMismatch,
              "matrices over different ring contexts"),
             (lambda: add_products(b, b, b, a), ValueError,
              "shape mismatch in matrix addition"),
             (lambda: sums_equal(b, [(b, a)]), ValueError,
              "shape mismatch in matrix comparison")]
    for product, error, message in cases:
        with pytest.raises(error) as info:
            product()
        assert str(info.value) == message
    # a zero inner dimension gives the zero matrix
    assert zeros(Z2, 2, 0) @ zeros(Z2, 0, 3) == zeros(Z2, 2, 3)


def test_matrices_are_immutable_and_slotted():
    m = mat(Z2, [[1, 2], [3, 4]])
    cases = [(lambda: setattr(m, "rows", 3), "cannot assign to field 'rows'"),
             (lambda: setattr(m, "colour", 1), "cannot assign to field 'colour'"),
             (lambda: delattr(m, "entries"), "cannot delete field 'entries'")]
    for change, message in cases:
        with pytest.raises(FrozenInstanceError) as info:
            change()
        assert str(info.value) == message
    assert not hasattr(m, "__dict__")
    assert m == mat(Z2, [[1, 2], [3, 4]])
