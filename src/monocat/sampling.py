"""Seeded random objects and morphisms.

Morphism sampling uses the fact that in the diagonal coordinates given by
the Smith transforms of source and target, a morphism is determined by one
free scalar per matrix cell: the commuting condition forces the pi-power
split between the two components.  Enumerating those scalars modulo omega
reaches every homotopy class, which the enumeration-based verifiers rely on.
"""

from __future__ import annotations

import itertools
import random

from .category import MonMorphism, MonObject
from .errors import CLASS_BUDGET, ParametersTooLarge
from .homotopy import HomotopyWitness, null_morphism_from_data
from .linalg import MatS, diag_pi, random_unimodular
from .rings import RingCtx, Scalar


def random_scalar(ctx: RingCtx, rng: random.Random) -> Scalar:
    """A ring element covering every residue class modulo omega."""
    return ctx._random_scalar(rng)


def random_object(ctx: RingCtx, rng: random.Random, max_size: int) -> MonObject:
    """diag(pi^{s_i}) conjugated by two random unimodular factors."""
    n = rng.randrange(1, max_size + 1)
    exps = [rng.randrange(0, ctx.t + 1) for _ in range(n)]
    u = random_unimodular(n, rng.randrange(2 ** 32), ctx)
    v = random_unimodular(n, rng.randrange(2 ** 32), ctx)
    return MonObject(ctx, u @ diag_pi(ctx, exps) @ v)


def morphism_from_params(src: MonObject, dst: MonObject, params) -> MonMorphism:
    """The morphism with the given free scalars, one per (target row,
    source column) cell in diagonal coordinates."""
    ctx = src.ctx
    t = ctx.t
    cells1 = []
    cells0 = []
    it = iter(params)
    for sj in dst.svals:
        for si in src.svals:
            c = next(it)
            if si >= sj:
                cells0.append(c)
                cells1.append(c * ctx.pi_pow(si - sj))
            else:
                cells1.append(c)
                cells0.append(c * ctx.pi_pow(sj - si))
    big1 = MatS(ctx, dst.n, src.n, tuple(cells1))
    big0 = MatS(ctx, dst.n, src.n, tuple(cells0))
    psi1 = dst.smith.v_inv @ big1 @ src.smith.v
    psi0 = dst.smith.u @ big0 @ src.smith.u_inv
    return MonMorphism(src, dst, psi1, psi0)


def all_morphism_params(src: MonObject, dst: MonObject):
    """Parameter tuples covering every homotopy class once lifted; refused
    over Q and beyond CLASS_BUDGET classes before any tuple exists."""
    ctx = src.ctx
    cells = src.n * dst.n
    if ctx.residue_field_size ** (ctx.t * cells) > CLASS_BUDGET:
        raise ParametersTooLarge(f"more than {CLASS_BUDGET} morphism classes")
    pool = [ctx.lift(r) for r in ctx.residue_elements()]
    return itertools.product(pool, repeat=cells)


def random_morphism(src: MonObject, dst: MonObject,
                    rng: random.Random) -> MonMorphism:
    params = [random_scalar(src.ctx, rng) for _ in range(src.n * dst.n)]
    return morphism_from_params(src, dst, params)


def random_null_homotopic(src: MonObject, dst: MonObject, rng: random.Random
                          ) -> tuple[MonMorphism, HomotopyWitness]:
    """A null-homotopic morphism with the witness that generated it."""
    ctx = src.ctx
    s0 = MatS(ctx, dst.n, src.n,
              tuple(random_scalar(ctx, rng) for _ in range(dst.n * src.n)))
    s1 = MatS(ctx, dst.n, src.n,
              tuple(random_scalar(ctx, rng) for _ in range(dst.n * src.n)))
    return null_morphism_from_data(src, dst, s0, s1)
