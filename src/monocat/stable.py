"""The module side over the quotient ring R = S/(omega).

The cokernel functor lands in finite R-modules described by cyclic
exponents.  Everything needed for differential testing lives here: the
induced map on cokernels, syzygies, 2-periodic resolutions checked by
enumeration, and a brute-force stable Hom that knows nothing about the
closed form used on the homotopy side.  The brute-force side works on
residues of R throughout: map coordinates come from the ring's residue
quotient and reduction, and the stable Hom group from one residue
elimination of its presentation, with no scalar of S.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .category import MonMorphism, MonObject, RModuleObj, cokernel, rank_one
from .errors import (VECTOR_BUDGET, ContextMismatch, InfiniteResidueField,
                     InternalInvariantError, ParametersTooLarge)
from .homotopy import StableHomModule, stable_hom, suspend
from .linalg import MatR, _residue_svals, reduce_mat
from .rings import RingCtx


@dataclass(frozen=True)
class RModuleMap:
    """Map of R-modules in cyclic-generator coordinates.

    entries[j * len(src.exps) + i] acts R/pi^{e_i} -> R/pi^{e'_j}; it is
    stored as a residue modulo omega truncated to modulus pi^{e'_j}.
    """

    src: RModuleObj
    tgt: RModuleObj
    entries: tuple

    def __post_init__(self):
        ctx = self.src.ctx
        if ctx != self.tgt.ctx:
            raise ContextMismatch("module map across ring contexts")
        for j, ej in enumerate(self.tgt.exps):
            for i, ei in enumerate(self.src.exps):
                r = self.at(j, i)
                need = max(ej - ei, 0)
                if ctx.residue_valuation(r) < need:
                    raise ValueError(
                        "map entry is not well defined on the cyclic summand")

    def at(self, j: int, i: int):
        return self.entries[j * len(self.src.exps) + i]

    def is_zero(self) -> bool:
        return not any(self.entries)


def coker_functor(psi: MonMorphism) -> RModuleMap:
    """The induced map of cokernels in the diagonalized generator bases."""
    ctx = psi.ctx
    src, dst = psi.src, psi.dst
    h = dst.smith.u_inv @ psi.psi0 @ src.smith.u
    src_keep = [i for i, s in enumerate(src.svals) if s > 0]
    dst_keep = [j for j, s in enumerate(dst.svals) if s > 0]
    entries = []
    for j in dst_keep:
        ej = dst.svals[j]
        for i in src_keep:
            r = ctx.reduce_mod_omega(h.at(j, i))
            entries.append(ctx.residue_truncate(r, ej))
    return RModuleMap(cokernel(src), cokernel(dst), tuple(entries))


def syzygy(m: RModuleObj) -> RModuleObj:
    """Kernel of the projective cover, as a stable class: e -> t - e."""
    t = m.ctx.t
    return RModuleObj(m.ctx, tuple(sorted(t - e for e in m.stable_exps())))


def cosyzygy(m: RModuleObj) -> RModuleObj:
    """Stable inverse of the syzygy; the same exponent flip here."""
    return syzygy(m)


def transpose(m: RModuleObj) -> RModuleObj:
    """Auslander transpose; identity on stable classes for these rings."""
    return RModuleObj(m.ctx, tuple(sorted(m.stable_exps())))


@dataclass(frozen=True)
class PeriodicResolution:
    """The 2-periodic complex ... -> R^n -f_bar-> R^n -fsig_bar-> R^n -> ...

    resolving the cokernel of f over R.  Its two differentials are its
    whole content: ``term(k)`` reads the k-th of the infinite complex.
    """

    f_bar: MatR
    fsig_bar: MatR

    def term(self, k: int) -> MatR:
        """Differential number k counting from the augmentation end."""
        return self.f_bar if k % 2 == 0 else self.fsig_bar


def two_periodic_resolution(f: MonObject) -> PeriodicResolution:
    f_bar = reduce_mat(f.mat)
    fsig_bar = reduce_mat(f.partner_mat)
    if not (f_bar @ fsig_bar).is_zero() or not (fsig_bar @ f_bar).is_zero():
        raise InternalInvariantError(
            "periodic differentials do not compose to zero")
    return PeriodicResolution(f_bar, fsig_bar)


def resolution_is_exact(res: PeriodicResolution, ctx: RingCtx) -> bool:
    """Full enumeration of R^n: kernel of each differential equals the
    image of the other.  Requires a finite residue field, and |R|^n at
    most VECTOR_BUDGET."""
    n = res.f_bar.rows
    if ctx.residue_field_size ** (ctx.t * n) > VECTOR_BUDGET:
        raise ParametersTooLarge("too many vectors to enumerate in R^n")
    ker_f, ker_g = set(), set()
    im_f, im_g = set(), set()
    zero = tuple(ctx.residue_zero() for _ in range(n))
    for vec in itertools.product(ctx.residue_elements(), repeat=n):
        fv = res.f_bar.apply(vec)
        gv = res.fsig_bar.apply(vec)
        im_f.add(fv)
        im_g.add(gv)
        if fv == zero:
            ker_f.add(vec)
        if gv == zero:
            ker_g.add(vec)
    return ker_f == im_g and ker_g == im_f


# ---------------------------------------------------------------------------
# brute-force stable Hom over R


def _map_coordinates(ctx: RingCtx, m: RModuleObj, n: RModuleObj,
                     entries: tuple) -> tuple:
    """Coordinates of a map in the cyclic decomposition of the Hom group:
    cell (j,i) holds entry / pi^{max(ej-ei,0)} modulo pi^{min(ei,ej)},
    read on the residue itself.  Each entry must have valuation at least
    max(ej-ei, 0), as ``RModuleMap`` checks of a map and as every
    composite through R^k has, so the quotient is exact."""
    return tuple(ctx._mod(ctx._pi_quotient(entries[j * len(m.exps) + i],
                                           max(ej - ei, 0)), min(ei, ej))
                 for j, ej in enumerate(n.exps) for i, ei in enumerate(m.exps))


def check_map_budget(ctx: RingCtx, cells: int):
    """Refuse more than VECTOR_BUDGET maps m -> R^k, k * gens(m) = cells."""
    if ctx.residue_field_size ** (ctx.t * cells) > VECTOR_BUDGET:
        raise ParametersTooLarge("too many maps to enumerate into R^k")


def _projective_factoring_coordinates(ctx: RingCtx, m: RModuleObj,
                                      n: RModuleObj) -> set:
    """Coordinate tuples of every map factoring through a projective.

    Those are exactly the composites of some map m -> R^k with the
    canonical surjection R^k -> n on the k generators of n: enumerate the
    former exhaustively.  Hom(R/pi^e, R) is pi^{t-e} R, one residue class
    per element of R/pi^e.
    """
    k = len(n.exps)
    gens = len(m.exps)
    check_map_budget(ctx, k * gens)
    # the pool of cell (j, i) depends on e_i alone: one per exponent of m,
    # shared by the k rows
    pools = []
    for ei in m.exps:
        g = ctx.reduce_mod_omega(ctx.pi_pow(ctx.t - ei))
        pools.append(list(dict.fromkeys(ctx.residue_mul(g, r)
                                        for r in ctx.residue_elements())))
    # combo is a k x gens matrix of entries of psi: m -> R^k; its composite
    # with the surjection truncates entry (j,i) modulo pi^{e'_j}, which the
    # coordinates' own reduction modulo pi^{min(e_i, e'_j)} subsumes
    return {_map_coordinates(ctx, m, n, combo)
            for combo in itertools.product(*(pools * k))}


def stable_hom_R_bruteforce(m: RModuleObj, n: RModuleObj) -> StableHomModule:
    """Invariant factors of stable Hom_R(m, n) by exhaustive enumeration."""
    ctx = m.ctx
    if ctx != n.ctx:
        raise ContextMismatch("stable Hom across ring contexts")
    if ctx.residue_modulus is None:
        raise InfiniteResidueField("brute-force Hom needs a finite quotient")
    if not m.exps or not n.exps:
        return StableHomModule(())
    cells = [min(ei, ej) for ej in n.exps for ei in m.exps]
    # quotient of the cyclic product by the factoring subgroup: present it
    # by the rows [diag(pi^{c_r}) | generator coordinates], residues modulo
    # pi^{t+1} (those of R already are), and read the invariant factors off
    # its Smith exponents; the diagonal block keeps each at most
    # max(c_r) <= t, and column order does not change them
    e = ctx.t + 1
    zero = ctx.residue_zero()
    factoring = list(zip(*_projective_factoring_coordinates(ctx, m, n)))
    rows = [[ctx._reduce(ctx.pi_pow(c), e) if i == r else zero
             for i in range(len(cells))] + list(factoring[r])
            for r, c in enumerate(cells)]
    vals = _residue_svals(ctx, rows, e)
    if e in vals:
        raise InternalInvariantError(
            "stable Hom presentation has an exponent above t")
    return StableHomModule(tuple(s for s in vals if s > 0))


def stable_class_is_zero(h: RModuleMap) -> bool:
    """True when the map factors through a projective R-module."""
    ctx = h.src.ctx
    if not h.src.exps or not h.tgt.exps:
        return True
    coords = _map_coordinates(ctx, h.src, h.tgt, h.entries)
    return coords in _projective_factoring_coordinates(ctx, h.src, h.tgt)


# ---------------------------------------------------------------------------
# full-faithfulness report


def format_lengths(lengths: tuple) -> str:
    return "[" + ",".join(str(x) for x in lengths) + "]"


def check_fully_faithful(ctx: RingCtx, max_s: int) -> tuple[list, bool]:
    """Compare the homotopy-side closed form with the brute-force oracle on
    every pair of indecomposables; returns (report lines, all passed)."""
    objs = [rank_one(ctx, s) for s in range(0, max_s + 1)]
    lines = []
    ok = True
    for s, a in enumerate(objs):
        for s2, b in enumerate(objs):
            mon = stable_hom(a, b).lengths
            oracle = stable_hom_R_bruteforce(cokernel(a), cokernel(b)).lengths
            good = mon == oracle
            ok = ok and good
            lines.append(
                f"PAIR s={s} s'={s2} mon={format_lengths(mon)} "
                f"oracle={format_lengths(oracle)} {'PASS' if good else 'FAIL'}")
    return lines, ok


def intertwine_suspension_check(f: MonObject) -> bool:
    """cokernel(shift f) equals the cosyzygy of cokernel(f) stably."""
    left = tuple(sorted(cokernel(suspend(f)).stable_exps()))
    right = cosyzygy(cokernel(f)).stable_exps()
    return left == tuple(sorted(right))
