"""Seeded unimodular draws on lines of numerators.

``linalg.random_unimodular`` runs its elementary operations on lines of
numerators over denominator 1, ints over Z_(p) and Polys over k[x]_(x),
and finishes them with ``_from_lines``.  It must draw the same matrix as
``oracle_helpers.random_unimodular_ref``, the same operations on scalar
rows, entry for entry, and leave the rng where the reference leaves it;
so must ``sampling.random_object``, which draws two of them.  Over Z_(p)
the draw builds no Fraction and comes out in cleared form.
"""

import random
from fractions import Fraction

import pytest

from monocat import sampling
from monocat.linalg import random_unimodular
from monocat.rings import Poly, RingCtx
from oracle_helpers import random_unimodular_ref

INT_RINGS = [RingCtx.int_local(p, t) for p in (2, 3, 5) for t in (1, 2, 3, 4)]
POLY_RINGS = [RingCtx.poly_local(2, q=2), RingCtx.poly_local(3, q=3),
              RingCtx.poly_local(2, q=5), RingCtx.poly_local(2)]
RINGS = INT_RINGS + POLY_RINGS
IDS = [f"Z{c.p}^{c.t}" for c in INT_RINGS] + ["F2", "F3", "F5", "Q"]


def entry_reprs(m) -> list:
    return [repr(x) for x in m.entries]


@pytest.mark.parametrize("ctx", RINGS, ids=IDS)
def test_draw_equals_the_scalar_reference(ctx):
    for n in range(6):
        for seed in range(100):
            got = random_unimodular(n, seed, ctx)
            want = random_unimodular_ref(n, seed, ctx)
            assert (got.rows, got.cols) == (want.rows, want.cols) == (n, n)
            assert entry_reprs(got) == entry_reprs(want), (n, seed)


@pytest.mark.parametrize("ctx", RINGS, ids=IDS)
def test_random_object_equals_its_draw_on_the_reference(ctx, monkeypatch):
    for seed in range(40):
        rng = random.Random(seed)
        got = sampling.random_object(ctx, rng, 4)
        got_state = rng.getstate()
        with monkeypatch.context() as patch:
            patch.setattr(sampling, "random_unimodular", random_unimodular_ref)
            rng = random.Random(seed)
            want = sampling.random_object(ctx, rng, 4)
        assert rng.getstate() == got_state
        assert entry_reprs(got.mat) == entry_reprs(want.mat)
        assert got.svals == want.svals


@pytest.mark.parametrize("ctx", INT_RINGS, ids=IDS[:len(INT_RINGS)])
def test_int_local_draw_is_cleared_and_builds_no_fraction(ctx, monkeypatch):
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", counting)
        draws = [random_unimodular(n, seed, ctx) for n in range(1, 6) for seed in range(20)]
    assert built == []
    for u in draws:
        assert u._entries is None
        nums, den = u._cleared
        assert den == 1 and len(nums) == u.rows * u.cols
        assert all(type(x) is int for x in nums)


@pytest.mark.parametrize("ctx", RINGS, ids=IDS)
def test_random_unit_is_a_numerator_of_valuation_zero(ctx):
    rng = random.Random(7)
    for _ in range(200):
        c = ctx._random_unit(rng)
        if ctx in POLY_RINGS:
            assert type(c) is Poly and c and ctx._valuation(c) == 0
        else:
            assert type(c) is int and c % ctx.p != 0
