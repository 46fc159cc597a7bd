"""The cokernel functor and the module-side Hom oracle."""

import itertools
import random

import pytest

from monocat.category import (RModuleObj, cokernel, identity_morphism,
                              make_object, rank_one)
from monocat.errors import (VECTOR_BUDGET, InfiniteResidueField,
                            ParametersTooLarge)
from monocat.homotopy import null_homotopy, stable_hom
from monocat.rings import RingCtx
from monocat.sampling import (random_morphism, random_null_homotopic,
                              random_object)
from monocat.stable import (RModuleMap, _map_coordinates,
                            _projective_factoring_coordinates,
                            check_fully_faithful, coker_functor, cosyzygy,
                            format_lengths, intertwine_suspension_check,
                            resolution_is_exact, stable_class_is_zero,
                            stable_hom_R_bruteforce, syzygy, transpose,
                            two_periodic_resolution)
from oracle_helpers import map_coordinates_ref

Z2 = RingCtx.int_local(2, 2)
Z2_3 = RingCtx.int_local(2, 3)
Z2_4 = RingCtx.int_local(2, 4)


def test_coker_functor_identity():
    f = rank_one(Z2, 1)
    h = coker_functor(identity_morphism(f))
    assert h.src.exps == (1,) and h.tgt.exps == (1,)
    assert h.entries == (1,)


def test_coker_functor_to_projective_target():
    src = make_object(Z2, [[2]])
    dst = make_object(Z2, [[1]])
    psi = coker_functor(
        random_morphism(src, dst, random.Random(0)))
    assert psi.tgt.exps == ()
    assert psi.entries == ()


def test_coker_functor_kills_null_homotopic():
    rng = random.Random(13)
    for trial in range(20):
        t = rng.choice([2, 3])
        ctx = RingCtx.int_local(2, t)
        src = random_object(ctx, rng, 2)
        dst = random_object(ctx, rng, 2)
        psi, _ = random_null_homotopic(src, dst, rng)
        assert stable_class_is_zero(coker_functor(psi))


def test_coker_functor_reflects_zero():
    # faithfulness: a morphism with stably-zero cokernel map is null-homotopic
    rng = random.Random(37)
    checked = 0
    while checked < 20:
        t = rng.choice([2, 3])
        ctx = RingCtx.int_local(2, t)
        src = random_object(ctx, rng, 2)
        dst = random_object(ctx, rng, 2)
        psi = random_morphism(src, dst, rng)
        if null_homotopy(psi) is not None:
            continue
        checked += 1
        assert not stable_class_is_zero(coker_functor(psi))


def test_syzygy_examples():
    assert syzygy(RModuleObj(Z2, (1,))).exps == (1,)
    assert syzygy(RModuleObj(Z2_3, (1,))).exps == (2,)
    assert syzygy(RModuleObj(Z2, (2,))).exps == ()  # free vanishes stably
    m = RModuleObj(Z2_3, (1, 2, 3))
    assert syzygy(syzygy(m)).exps == m.stable_exps()
    assert cosyzygy(syzygy(m)).exps == m.stable_exps()


def test_transpose_examples():
    assert transpose(RModuleObj(Z2, (1,))).exps == (1,)
    assert transpose(RModuleObj(Z2, (2,))).exps == ()
    m = RModuleObj(Z2_3, (1, 2))
    assert transpose(transpose(m)).exps == m.stable_exps()


def test_two_periodic_resolution_frozen():
    f = rank_one(Z2, 1)
    res = two_periodic_resolution(f)
    assert res.f_bar.entries == (2,)
    assert res.fsig_bar.entries == (2,)
    assert res.term(0) is res.f_bar and res.term(1) is res.fsig_bar
    assert resolution_is_exact(res, Z2)


def test_two_periodic_resolution_identity_object():
    res = two_periodic_resolution(rank_one(Z2, 0))
    assert resolution_is_exact(res, Z2)


def test_two_periodic_resolution_random():
    rng = random.Random(19)
    for trial in range(25):
        t = rng.choice([1, 2, 3])
        ctx = RingCtx.int_local(2, t)
        obj = random_object(ctx, rng, 2)
        res = two_periodic_resolution(obj)
        assert resolution_is_exact(res, ctx)


def test_two_periodic_resolution_poly():
    ctx = RingCtx.poly_local(2, q=2)
    obj = make_object(ctx, [["x", "1"], ["0", "x"]])
    assert resolution_is_exact(two_periodic_resolution(obj), ctx)


def test_resolution_enumeration_is_budgeted():
    # 27^3 vectors, the most `mon check` draws at its default sizes, are
    # enumerated; 27^4 exceed VECTOR_BUDGET and are refused up front
    z33 = RingCtx.int_local(3, 3)
    f = make_object(z33, [["3", "1", "0"], ["0", "9", "0"], ["0", "0", "1"]])
    assert resolution_is_exact(two_periodic_resolution(f), z33)
    g = make_object(z33, [["3", "0", "0", "0"], ["0", "9", "0", "0"],
                          ["0", "0", "1", "0"], ["0", "0", "0", "27"]])
    with pytest.raises(ParametersTooLarge):
        resolution_is_exact(two_periodic_resolution(g), z33)
    rational = RingCtx.poly_local(2)
    with pytest.raises(InfiniteResidueField):
        resolution_is_exact(two_periodic_resolution(rank_one(rational, 1)),
                            rational)


def test_bruteforce_hom_is_budgeted():
    # one generator into R^1 at t = 3: Z_(31) gives 31^3 maps, enumerated;
    # Z_(101) gives 101^3, over VECTOR_BUDGET, refused before enumerating
    # by the Hom oracle and the stable-zero test alike
    z31 = RingCtx.int_local(31, 3)
    small = RModuleObj(z31, (1,))
    assert stable_hom_R_bruteforce(small, small).lengths == (1,)
    z101 = RingCtx.int_local(101, 3)
    big = RModuleObj(z101, (1,))
    with pytest.raises(ParametersTooLarge):
        stable_hom_R_bruteforce(big, big)
    ident = coker_functor(identity_morphism(rank_one(z101, 1)))
    with pytest.raises(ParametersTooLarge):
        stable_class_is_zero(ident)


def test_bruteforce_hom_frozen_values():
    assert stable_hom_R_bruteforce(
        RModuleObj(Z2, (1,)), RModuleObj(Z2, (1,))).lengths == (1,)
    assert stable_hom_R_bruteforce(
        RModuleObj(Z2, (1,)), RModuleObj(Z2, (2,))).lengths == ()
    assert stable_hom_R_bruteforce(
        RModuleObj(Z2_4, (1, 2)), RModuleObj(Z2_4, (2,))).lengths == (1, 2)


def test_bruteforce_hom_rejects_infinite_field():
    ctx = RingCtx.poly_local(2)
    with pytest.raises(InfiniteResidueField):
        stable_hom_R_bruteforce(RModuleObj(ctx, (1,)), RModuleObj(ctx, (1,)))


def test_closed_form_matches_bruteforce_on_random_objects():
    rng = random.Random(47)
    for trial in range(12):
        t = rng.choice([2, 3])
        ctx = RingCtx.int_local(2, t)
        a = random_object(ctx, rng, 2)
        b = random_object(ctx, rng, 2)
        mon = stable_hom(a, b).lengths
        oracle = stable_hom_R_bruteforce(cokernel(a), cokernel(b)).lengths
        assert mon == oracle


def test_closed_form_matches_bruteforce_on_every_finite_ring():
    # the oracle's F_q path and odd p: F_2[x]_(x), F_3[x]_(x) and Z_(3),
    # t <= 3, rank <= 2; a pair beyond VECTOR_BUDGET is refused, not compared
    rng = random.Random(61)
    compared = refused = nonzero = 0
    for make in (lambda t: RingCtx.poly_local(t, 2),
                 lambda t: RingCtx.poly_local(t, 3),
                 lambda t: RingCtx.int_local(3, t)):
        for t in (1, 2, 3):
            ctx = make(t)
            for _ in range(6):
                a = random_object(ctx, rng, 2)
                b = random_object(ctx, rng, 2)
                try:
                    oracle = stable_hom_R_bruteforce(cokernel(a), cokernel(b))
                except ParametersTooLarge:
                    refused += 1
                    continue
                assert stable_hom(a, b).lengths == oracle.lengths, (a, b)
                compared += 1
                nonzero += bool(oracle.lengths)
    assert compared >= 45 and refused <= 5 and nonzero >= 5


@pytest.mark.parametrize("q", [2, 3])
def test_stable_zero_over_finite_poly_rings(q):
    rng = random.Random(q)
    for t in (1, 2, 3):
        ctx = RingCtx.poly_local(t, q)
        # rank 2 both ways enumerates q^(4t) maps; F_3 at t = 3 exceeds that
        size = 2 if q ** (4 * t) <= VECTOR_BUDGET else 1
        for _ in range(4):
            src = random_object(ctx, rng, size)
            dst = random_object(ctx, rng, size)
            psi, _ = random_null_homotopic(src, dst, rng)
            assert stable_class_is_zero(coker_functor(psi))
    # the identity of pi^1 at t = 2 is not stably zero: R/pi is not free
    assert not stable_class_is_zero(coker_functor(identity_morphism(
        rank_one(RingCtx.poly_local(2, q), 1))))


def random_module_map(ctx, rng, src_exps, tgt_exps) -> RModuleMap:
    """A well-defined map of cyclic R-modules: entry (j, i) is a random
    residue times pi^(max(e'_j - e_i, 0)), truncated modulo pi^(e'_j)."""
    elements = list(ctx.residue_elements())
    entries = []
    for ej in tgt_exps:
        for ei in src_exps:
            shift = ctx.reduce_mod_omega(ctx.pi_pow(max(ej - ei, 0)))
            r = ctx.residue_mul(rng.choice(elements), shift)
            entries.append(ctx.residue_truncate(r, ej))
    return RModuleMap(RModuleObj(ctx, tuple(src_exps)),
                      RModuleObj(ctx, tuple(tgt_exps)), tuple(entries))


@pytest.mark.parametrize("ctx", [RingCtx.int_local(2, 4), RingCtx.int_local(3, 3),
                                 RingCtx.poly_local(4, 2), RingCtx.poly_local(3, 3)],
                         ids=repr)
def test_map_coordinates_match_the_scalar_route(ctx):
    rng = random.Random(ctx.t)
    exps = list(range(1, ctx.t + 1))
    for _ in range(60):
        src = [rng.choice(exps) for _ in range(rng.randint(1, 2))]
        tgt = [rng.choice(exps) for _ in range(rng.randint(1, 2))]
        h = random_module_map(ctx, rng, src, tgt)
        assert _map_coordinates(ctx, h.src, h.tgt, h.entries) == \
            map_coordinates_ref(ctx, h.src, h.tgt, h.entries)


@pytest.mark.parametrize("ctx", [RingCtx.int_local(2, 3), RingCtx.int_local(3, 3),
                                 RingCtx.poly_local(3, 2)], ids=repr)
def test_factoring_coordinates_match_the_scalar_route(ctx):
    # every composite m -> R^k -> n, truncated modulo pi^(e'_j) before its
    # coordinates are read; with e_i < e'_j < t the coordinates' own
    # reduction modulo pi^(e_i) is what drops the terms that truncation drops
    elements = list(ctx.residue_elements())
    for src, tgt in (((1,), (2,)), ((1, 2), (2,)), ((2,), (1, 2)), ((1,), (1, 2))):
        m, n = RModuleObj(ctx, src), RModuleObj(ctx, tgt)
        pools = [[ctx.residue_mul(ctx.reduce_mod_omega(ctx.pi_pow(ctx.t - ei)), r)
                  for r in elements] for ei in src]
        want = set()
        for combo in itertools.product(*(pools * len(tgt))):
            entries = tuple(ctx.residue_truncate(combo[j * len(src) + i], ej)
                            for j, ej in enumerate(tgt) for i in range(len(src)))
            want.add(map_coordinates_ref(ctx, m, n, entries))
        assert _projective_factoring_coordinates(ctx, m, n) == want


def test_fully_faithful_report():
    lines, ok = check_fully_faithful(Z2, 2)
    assert ok
    assert len(lines) == 9
    assert lines[0] == "PAIR s=0 s'=0 mon=[] oracle=[] PASS"
    assert all(line.endswith("PASS") for line in lines)
    spot = [ln for ln in lines if ln.startswith("PAIR s=1 s'=1 ")]
    assert spot == ["PAIR s=1 s'=1 mon=[1] oracle=[1] PASS"]


def test_fully_faithful_t3():
    lines, ok = check_fully_faithful(Z2_3, 3)
    assert ok and len(lines) == 16


def test_format_lengths():
    assert format_lengths(()) == "[]"
    assert format_lengths((1, 2)) == "[1,2]"


def test_suspension_intertwines_cosyzygy():
    rng = random.Random(53)
    for trial in range(15):
        ctx = RingCtx.int_local(rng.choice([2, 3]), rng.choice([2, 3]))
        assert intertwine_suspension_check(random_object(ctx, rng, 3))
