"""Objects, morphisms, partner duality."""

import random

import pytest

from monocat.category import (MonMorphism, MonObject, check_morphism, cokernel,
                              compose, decompose, direct_sum,
                              identity_morphism, make_object, partner_morphism,
                              projective_envelope, rank_one, zero_morphism)
from monocat.errors import (CokernelNotOmegaTorsion, NonSquare, NotComposable,
                            NotMono, SquareNotCommuting)
from monocat.linalg import (diag_pi, identity, inverse_frac, mat,
                            random_unimodular)
from monocat.rings import RingCtx

Z2 = RingCtx.int_local(2, 2)
Z2_3 = RingCtx.int_local(2, 3)
F3X = RingCtx.poly_local(2, q=3)
F2X = RingCtx.poly_local(2, q=2)
QX = RingCtx.poly_local(2)


def test_object_validation():
    obj = make_object(Z2, [[2, 1], [0, -2]])
    assert obj.svals == (0, 2)
    with pytest.raises(NonSquare):
        make_object(Z2, [[1, 0]])
    with pytest.raises(NotMono):
        make_object(Z2, [[2, 2], [1, 1]])
    with pytest.raises(CokernelNotOmegaTorsion):
        make_object(Z2, [[8]])


def test_poly_object():
    obj = make_object(F3X, [["x", "1"], ["0", "x"]])
    assert obj.svals == (0, 2)


def test_partner_laws():
    rng = random.Random(2)
    for ctx, trials in ((Z2, 20), (F2X, 8), (F3X, 8), (QX, 8)):
        for trial in range(trials):
            n = rng.randrange(1, 4)
            exps = [rng.randrange(0, ctx.t + 1) for _ in range(n)]
            u = random_unimodular(n, rng.randrange(10 ** 6), ctx)
            v = random_unimodular(n, rng.randrange(10 ** 6), ctx)
            obj = MonObject(ctx, u @ diag_pi(ctx, exps) @ v)
            part = obj.partner()
            # the partner built from the Smith form equals omega * f^{-1}
            # computed by Gauss-Jordan, entry for entry
            assert part.mat == inverse_frac(obj.mat).scale(ctx.omega())
            prod = obj.mat @ part.mat
            omega_id = identity(ctx, n).scale(ctx.omega())
            assert prod.entries == omega_id.entries
            assert (part.mat @ obj.mat).entries == omega_id.entries
            assert part.partner().mat.entries == obj.mat.entries
            assert part.svals == tuple(sorted(ctx.t - s for s in exps))


def test_morphism_check():
    src = make_object(Z2, [[2]])
    dst = make_object(Z2, [[1]])
    MonMorphism(src, dst, mat(Z2, [[2]]), mat(Z2, [[1]]))
    with pytest.raises(SquareNotCommuting):
        MonMorphism(src, dst, mat(Z2, [[1]]), mat(Z2, [[1]]))
    with pytest.raises(NonSquare):
        check_morphism(src, dst, mat(Z2, [[1, 0]]), mat(Z2, [[2]]))


def test_compose_identity_zero_add():
    a = make_object(Z2, [[2]])
    b = make_object(Z2, [[4]])
    f = MonMorphism(a, b, mat(Z2, [[1]]), mat(Z2, [[2]]))
    ida = identity_morphism(a)
    assert compose(f, ida).psi0.entries == f.psi0.entries
    z = zero_morphism(a, b)
    assert (f + z).psi1.entries == f.psi1.entries
    assert (f - f).psi1.is_zero()
    with pytest.raises(NotComposable):
        compose(f, f)


def test_partner_morphism_swaps_components():
    src = make_object(Z2, [[2]])
    dst = make_object(Z2, [[4]])
    psi = MonMorphism(src, dst, mat(Z2, [[1]]), mat(Z2, [[2]]))
    dual = partner_morphism(psi)
    assert dual.src == src.partner()
    assert dual.psi1.entries == psi.psi0.entries
    assert dual.psi0.entries == psi.psi1.entries


def test_direct_sum_and_decompose():
    a = rank_one(Z2, 1)
    b = rank_one(Z2, 2)
    s = direct_sum(a, b)
    assert decompose(s) == (1, 2)
    assert cokernel(s).exps == (1, 2)
    assert cokernel(rank_one(Z2, 0)).exps == ()


def test_projectivity():
    assert rank_one(Z2, 0).is_projective()
    assert rank_one(Z2, 2).is_projective()
    assert not rank_one(Z2, 1).is_projective()
    assert direct_sum(rank_one(Z2, 0), rank_one(Z2, 2)).is_projective()


def test_projective_envelope():
    rng = random.Random(9)
    for trial in range(10):
        n = rng.randrange(1, 3)
        u = random_unimodular(n, rng.randrange(10 ** 6), Z2_3)
        exps = [rng.randrange(0, 4) for _ in range(n)]
        core = mat(Z2_3, [[Z2_3.pi_pow(exps[i]) if i == j else 0
                           for j in range(n)] for i in range(n)])
        obj = MonObject(Z2_3, u @ core)
        env, proj = projective_envelope(obj)
        assert env.is_projective()
        assert env.svals == tuple([0] * n + [Z2_3.t] * n)
        assert proj.src == env and proj.dst == obj
