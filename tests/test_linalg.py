"""Matrices, Smith normal form, and the linear solvers.

The Smith form is checked against two independent oracles: valuations of
determinantal divisors (gcds of k x k minors) and brute-force kernel counts
over the finite quotient ring.
"""

import itertools
import random
from fractions import Fraction

import pytest

from monocat.errors import SingularMatrix
from monocat.linalg import (INFINITY, MatS, adjugate, block, det, diag_pi,
                            hstack, identity, inverse_frac, mat,
                            random_unimodular, reduce_mat, snf, solve_linear,
                            solve_sandwich_congruence, vstack, zeros)
from monocat.rings import Poly, RingCtx

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
                v = ctx.valuation(det(a.submatrix(rset, cset)))
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
        if ctx.is_zero(entry):
            continue
        rows = [r for r in range(n) if r != i]
        minor = cofactor_det(a.submatrix(rows, cols))
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
                    assert Z2.is_zero(e)
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
        if Z2.is_zero(d):
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
    assert hstack([a, b]).cols == 3
    assert vstack([a, mat(Z2, [[5, 6]])]).rows == 3


def test_reduce_mat():
    a = mat(Z2, [[5, -1], [4, Fraction(1, 3)]])
    r = reduce_mat(a)
    assert r.entries == (1, 3, 0, 3)
