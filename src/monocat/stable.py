"""The module side over the quotient ring R = S/(omega).

The cokernel functor lands in finite R-modules described by cyclic
exponents.  Everything needed for differential testing lives here: the
induced map on cokernels, syzygies, 2-periodic resolutions checked by
enumeration, and a brute-force stable Hom that knows nothing about the
closed form used on the homotopy side.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .category import MonMorphism, MonObject, RModuleObj, cokernel
from .errors import ContextMismatch, InfiniteResidueField
from .homotopy import StableHomModule, stable_hom, suspend
from .linalg import MatR, MatS, diag, hstack, reduce_mat, snf
from .rings import INFINITY, RingCtx


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
        return all(self.src.ctx.residue_is_zero(e) for e in self.entries)


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

    resolving the cokernel of f over R; ``length`` counts emitted terms.
    """

    f_bar: MatR
    fsig_bar: MatR
    length: int

    def term(self, k: int) -> MatR:
        """Differential number k counting from the augmentation end."""
        return self.f_bar if k % 2 == 0 else self.fsig_bar


def two_periodic_resolution(f: MonObject, terms: int = 2) -> PeriodicResolution:
    f_bar = reduce_mat(f.mat)
    fsig_bar = reduce_mat(f.partner_mat)
    if not (f_bar @ fsig_bar).is_zero() or not (fsig_bar @ f_bar).is_zero():
        raise AssertionError("periodic differentials do not compose to zero")
    return PeriodicResolution(f_bar, fsig_bar, terms)


def _all_vectors(ctx: RingCtx, n: int):
    pool = list(ctx.residue_elements())
    return itertools.product(pool, repeat=n)


def resolution_is_exact(res: PeriodicResolution, ctx: RingCtx) -> bool:
    """Full enumeration of R^n: kernel of each differential equals the
    image of the other.  Requires a finite residue field."""
    n = res.f_bar.rows
    ker_f, ker_g = set(), set()
    im_f, im_g = set(), set()
    zero = tuple(ctx.residue_zero() for _ in range(n))
    for vec in _all_vectors(ctx, n):
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


def _hom_cell_lengths(m: RModuleObj, n: RModuleObj) -> list:
    return [min(ei, ej) for ej in n.exps for ei in m.exps]


def _map_coordinates(ctx: RingCtx, m: RModuleObj, n: RModuleObj,
                     entries: tuple) -> tuple:
    """Coordinates of a map in the cyclic decomposition of the Hom group:
    cell (j,i) holds entry / pi^{max(ej-ei,0)} modulo pi^{min(ei,ej)}."""
    coords = []
    idx = 0
    for ej in n.exps:
        for ei in m.exps:
            r = entries[idx]
            idx += 1
            shift = max(ej - ei, 0)
            lifted = ctx.lift(r)
            if ctx.residue_is_zero(r):
                coords.append(ctx.residue_zero())
            else:
                q = ctx.div_exact(lifted, ctx.pi_pow(shift))
                coords.append(ctx.residue_truncate(ctx.reduce_mod_omega(q),
                                                   min(ei, ej)))
    return tuple(coords)


def _projective_factoring_coordinates(ctx: RingCtx, m: RModuleObj,
                                      n: RModuleObj) -> set:
    """Coordinate tuples of every map factoring through a projective.

    Those are exactly the composites of some map m -> R^k with the
    canonical surjection R^k -> n on the k generators of n: enumerate the
    former exhaustively.  Hom(R/pi^e, R) is pi^{t-e} R, one residue class
    per element of R/pi^e.
    """
    k = len(n.exps)
    t = ctx.t
    gens = len(m.exps)
    pools = []
    for _ in range(k):
        for ei in m.exps:
            cell = []
            seen = set()
            for r in ctx.residue_elements():
                val = ctx.residue_mul(ctx.reduce_mod_omega(ctx.pi_pow(t - ei)), r)
                if val not in seen:
                    seen.add(val)
                    cell.append(val)
            pools.append(cell)
    out = set()
    for combo in itertools.product(*pools):
        # combo is a k x gens matrix of entries of psi: m -> R^k; compose
        # with the surjection: entry (j,i) of the composite is truncation
        # of psi[j,i] modulo pi^{e'_j}
        entries = []
        for j, ej in enumerate(n.exps):
            for i in range(gens):
                entries.append(ctx.residue_truncate(combo[j * gens + i], ej))
        out.add(_map_coordinates(ctx, m, n, tuple(entries)))
    return out


def stable_hom_R_bruteforce(m: RModuleObj, n: RModuleObj) -> StableHomModule:
    """Invariant factors of stable Hom_R(m, n) by exhaustive enumeration."""
    ctx = m.ctx
    if ctx != n.ctx:
        raise ContextMismatch("stable Hom across ring contexts")
    if not ctx.has_finite_residue_field:
        raise InfiniteResidueField("brute-force Hom needs a finite quotient")
    if not m.exps or not n.exps:
        return StableHomModule(())
    cells = _hom_cell_lengths(m, n)
    factoring = _projective_factoring_coordinates(ctx, m, n)
    # quotient of the cyclic product by the factoring subgroup: present
    # over S by [diag(pi^{c_r}) | lifted generator columns] and read the
    # invariant factors off the Smith form
    cols = [diag(ctx, [ctx.pi_pow(c) for c in cells])]
    for coords in sorted(factoring, key=str):
        col = MatS(ctx, len(cells), 1, tuple(ctx.lift(r) for r in coords))
        cols.append(col)
    stacked = hstack(cols)
    lengths = [int(s) for s in snf(stacked).svals
               if s is not INFINITY and s > 0]
    return StableHomModule(tuple(sorted(lengths)))


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
    from .category import rank_one
    lines = []
    ok = True
    for s in range(0, max_s + 1):
        for s2 in range(0, max_s + 1):
            a = rank_one(ctx, s)
            b = rank_one(ctx, s2)
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
