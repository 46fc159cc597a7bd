"""Seeded random objects and morphisms.

Morphism sampling uses the fact that in the diagonal coordinates given by
the Smith transforms of source and target, a morphism is determined by one
free scalar per matrix cell: the commuting condition forces the pi-power
split between the two components.  Enumerating those scalars modulo omega
reaches every homotopy class, which the enumeration-based verifiers rely on.
"""

from __future__ import annotations

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


def cell_shifts(src: MonObject, dst: MonObject) -> list:
    """The pi exponents (k1, k0) of each (target row j, source column i)
    cell in diagonal coordinates, row-major: the cell's free scalar c
    enters B1 as c pi^k1 and B0 as c pi^k0.

    The square psi0 f = f' psi1 reads B0 D = D' B1 there, cell by cell
    b0 pi^si = pi^sj b1, so k0 - k1 = sj - si and the smaller is 0.
    """
    return [(max(si - sj, 0), max(sj - si, 0))
            for sj in dst.svals for si in src.svals]


def morphism_from_params(src: MonObject, dst: MonObject, params) -> MonMorphism:
    """The morphism with the given free scalars, one per (target row,
    source column) cell in diagonal coordinates."""
    ctx = src.ctx
    cells1 = []
    cells0 = []
    for c, (k1, k0) in zip(params, cell_shifts(src, dst), strict=True):
        cells1.append(c * ctx.pi_pow(k1) if k1 else c)
        cells0.append(c * ctx.pi_pow(k0) if k0 else c)
    big1 = MatS(ctx, dst.n, src.n, tuple(cells1))
    big0 = MatS(ctx, dst.n, src.n, tuple(cells0))
    psi1 = dst.smith.v_inv @ big1 @ src.smith.v
    psi0 = dst.smith.u @ big0 @ src.smith.u_inv
    return MonMorphism(src, dst, psi1, psi0)


def class_residues(src: MonObject, dst: MonObject) -> list:
    """R in its fixed order, the values of each free scalar of a class in
    Hom(src, dst); refused over Q and beyond CLASS_BUDGET classes."""
    ctx = src.ctx
    if ctx.residue_field_size ** (ctx.t * src.n * dst.n) > CLASS_BUDGET:
        raise ParametersTooLarge(f"more than {CLASS_BUDGET} morphism classes")
    return list(ctx.residue_elements())


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
