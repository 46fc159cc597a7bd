"""Auslander-Reiten translation and almost split sequences.

The translate is the identity when the declared ambient dimension is even
and swaps an object with its partner when it is odd.  For a rank-one
nonprojective object we build the almost split sequence ending at it by
lifting the classical chain of cyclic length modules, and a brute-force
verifier confirms the right-almost-split property: it enumerates every
morphism class from every indecomposable test object and decides strict
factorization with exact linear algebra over the base ring.  The linear
system of a strict factorization through g depends on g and on the test
object only, so the verifier takes one Smith form per (g, test object) and
solves each class by back-substitution against it.  Split verdicts come
from Hom generators: the end Z has rank one, so End(Z) is S, a local ring,
and h: X -> Z splits exactly when h o sigma is a unit for one of the
S-generators sigma of Hom(Z, X).  Those generators take one Smith form per
test object, and each class costs one composition per generator.
"""

from __future__ import annotations

from dataclasses import dataclass

from .category import MonMorphism, MonObject, compose, identity_morphism, rank_one
from .errors import NotComposable, NotIndecomposable, ProjectiveObject
from .homotopy import is_iso_in_homotopy
from .linalg import (INFINITY, MatS, hstack, identity, kron, mat, snf,
                     solve_with_snf, truncated_svals, vstack, zeros)
from .sampling import all_morphism_params, morphism_from_params
from .stable import RModuleObj, syzygy


def tau(f: MonObject, d: int = 0) -> MonObject:
    """Translate of an indecomposable nonprojective object.

    ``d`` is the declared dimension of the quotient ring's singularity; the
    rings implemented here all have d = 0, so the odd branch is a structural
    feature exercised only by direct calls.
    """
    if f.n != 1:
        raise NotIndecomposable("translate needs a rank-one object")
    s = f.svals[0]
    if s == 0 or s == f.ctx.t:
        raise ProjectiveObject("translate is undefined on projectives")
    if d % 2 == 0:
        return f
    return f.partner()


def tau_gp(m: RModuleObj, d: int = 0) -> RModuleObj:
    """Translate on the quotient-ring side: identity for even d, syzygy
    for odd d."""
    if len(m.exps) != 1:
        raise NotIndecomposable("translate needs a cyclic module")
    if m.exps[0] == m.ctx.t:
        raise ProjectiveObject("translate is undefined on free modules")
    if d % 2 == 0:
        return m
    return syzygy(m)


@dataclass(frozen=True)
class ArSequence:
    """An almost split sequence 0 -> tau_f -> middle -> end -> 0."""
    tau_f: MonObject
    middle: MonObject
    end: MonObject
    theta: MonMorphism
    g: MonMorphism


def _commuting_system(src: MonObject, dst: MonObject) -> list:
    """The blocks [A1, A0] with A1 @ vec(chi1) + A0 @ vec(chi0) == 0 exactly
    when dst.mat @ chi1 == chi0 @ src.mat, for chi: src -> dst and row-major
    vec."""
    ctx = src.ctx
    return [-kron(dst.mat, identity(ctx, src.n)),
            kron(identity(ctx, dst.n), src.mat.transpose())]


def _hom_generators(src: MonObject, dst: MonObject) -> list:
    """S-generators of Hom(src, dst), from one Smith form.

    With A = U @ D @ V the commuting system, A @ x == 0 exactly when V @ x
    vanishes in the first rank slots, so the columns of V^-1 from the rank
    on span the solutions over S.
    """
    ctx = src.ctx
    p, q = dst.n, src.n
    m = p * q
    smith = snf(hstack(_commuting_system(src, dst)))
    rank = sum(1 for s in smith.svals if s is not INFINITY)
    v_inv = smith.v_inv
    gens = []
    for j in range(rank, 2 * m):
        col = tuple(v_inv.at(i, j) for i in range(2 * m))
        gens.append(MonMorphism(src, dst, MatS(ctx, p, q, col[:m]),
                                MatS(ctx, p, q, col[m:])))
    return gens


def _splits(h: MonMorphism, generators: list) -> bool:
    """Whether h onto a rank-one end is a split epimorphism, given the
    S-generators of Hom(h.dst, h.src).

    End(h.dst) is S, acting by the same scalar on both components, so the
    compositions h o sigma span an ideal of a local ring, which holds 1
    exactly when some generator gives a unit.  That generator, scaled by
    the inverse unit, is checked to be a section.
    """
    ctx = h.ctx
    for sigma in generators:
        u = (h.psi1 @ sigma.psi1).at(0, 0)
        if ctx.is_unit(u):
            inv = ctx.one() / u
            section = MonMorphism(sigma.src, sigma.dst, sigma.psi1.scale(inv),
                                  sigma.psi0.scale(inv))
            if compose(h, section) != identity_morphism(h.dst):
                raise AssertionError("split section does not compose back")
            return True
    return False


class StrictFactorizer:
    """Strict factorizations through one morphism from one source object.

    The unknown entries of both components of chi, the commuting condition
    that makes chi a morphism, and the two composition equations are stacked
    into one linear system a @ vec(chi) = rhs over S.  The matrix a depends
    only on ``through`` and on ``src``; a target enters through rhs alone.
    So a and its Smith form are built once, and each target costs one
    back-substitution.
    """

    def __init__(self, through: MonMorphism, src: MonObject):
        ctx = through.ctx
        p, q, r = through.src.n, src.n, through.dst.n
        iq = identity(ctx, q)
        commute = _commuting_system(src, through.src)
        comp1 = [kron(through.psi1, iq), zeros(ctx, r * q, p * q)]
        comp0 = [zeros(ctx, r * q, p * q), kron(through.psi0, iq)]
        self.through = through
        self.src = src
        self.smith = snf(vstack([hstack(commute), hstack(comp1),
                                 hstack(comp0)]))

    def solve(self, target: MonMorphism):
        """A morphism chi with through o chi == target exactly, or None."""
        through = self.through
        if target.src != self.src or target.dst != through.dst:
            raise NotComposable("factorization endpoints disagree")
        ctx = through.ctx
        p, q = through.src.n, self.src.n
        m = p * q
        rhs = MatS(ctx, self.smith.d.rows, 1, (ctx.zero(),) * m
                   + target.psi1.entries + target.psi0.entries)
        sol = solve_with_snf(self.smith, rhs)
        if sol is None:
            return None
        chi1 = MatS(ctx, p, q, tuple(sol.at(k, 0) for k in range(m)))
        chi0 = MatS(ctx, p, q, tuple(sol.at(m + k, 0) for k in range(m)))
        chi = MonMorphism(target.src, through.src, chi1, chi0)
        if compose(through, chi) != target:
            raise AssertionError("strict factorization does not compose back")
        return chi


def factor_strictly(through: MonMorphism, target: MonMorphism):
    """A morphism chi with through o chi == target exactly, or None."""
    return StrictFactorizer(through, target.src).solve(target)


def is_split_epi(h: MonMorphism) -> bool:
    return factor_strictly(h, identity_morphism(h.dst)) is not None


def ar_sequence(f: MonObject) -> ArSequence:
    """The almost split sequence ending at a rank-one nonprojective object.

    The quotient-ring almost split sequence ending at the cyclic module of
    exponent s has middle term of exponents (s-1, s+1); lifting its maps to
    the free covers gives the middle object [[a, a/pi], [0, a]] with the
    evident inclusion and projection.
    """
    ctx = f.ctx
    if f.n != 1:
        raise NotIndecomposable("almost split sequences end at rank-one "
                                "objects here")
    s = f.svals[0]
    if s == 0 or s == ctx.t:
        raise ProjectiveObject("no almost split sequence ends at a "
                               "projective object")
    a = f.mat.at(0, 0)
    b = ctx.div_exact(a, ctx.pi())
    middle = MonObject(ctx, mat(ctx, [[a, b], [ctx.zero(), a]]))
    col = MatS(ctx, 2, 1, (ctx.one(), ctx.zero()))
    row = MatS(ctx, 1, 2, (ctx.zero(), ctx.one()))
    start = tau(f, 0)
    theta = MonMorphism(start, middle, col, col)
    g = MonMorphism(middle, f, row, row)
    if _exactness_failure(start, middle, f, theta, g) is not None:
        raise AssertionError("almost split sequence is not exact")
    if is_split_epi(g):
        raise AssertionError("almost split sequence splits")
    return ArSequence(start, middle, f, theta, g)


def _exactness_failure(start, middle, end, theta, g):
    """None when 0 -> start -> middle -> end -> 0 is componentwise split
    exact with the stated endpoints, else a short reason."""
    if theta.src != start or theta.dst != middle:
        return "theta endpoints"
    if g.src != middle or g.dst != end:
        return "g endpoints"
    if middle.n != start.n + end.n:
        return "rank count"
    comp = compose(g, theta)
    if not (comp.psi1.is_zero() and comp.psi0.is_zero()):
        return "composition not zero"
    for name, comp_mat, want in (("theta1", theta.psi1, start.n),
                                 ("theta0", theta.psi0, start.n),
                                 ("g1", g.psi1, end.n),
                                 ("g0", g.psi0, end.n)):
        vals = truncated_svals(comp_mat, 1)
        if len(vals) != want or any(vals):
            return f"{name} not split"
    return None


def verify_right_almost_split(seq: ArSequence):
    """Brute-force check that seq.g is right almost split.

    For each indecomposable test object (one per exponent s' in [0, t]) the
    morphisms into seq.end are enumerated by their free parameters modulo
    omega; factorization and split-epi decisions are both invariant under
    that reduction, so the classes cover everything.  A class must factor
    strictly through seq.g exactly when it is not a split epimorphism.
    Split verdicts come from the generators of Hom(seq.end, test), so
    seq.end must have rank one; any other end raises NotIndecomposable
    before a class is enumerated.

    Returns (lines, ok): one TEST line per exponent and a final ARSS
    summary line.
    """
    if seq.end.n != 1:
        raise NotIndecomposable("the verifier needs an end of rank one")
    ctx = seq.end.ctx
    label = ",".join(str(v) for v in seq.end.svals)
    lines = []
    reason = _exactness_failure(seq.tau_f, seq.middle, seq.end, seq.theta,
                                seq.g)
    if reason is None and is_split_epi(seq.g):
        reason = "g is a split epimorphism"
    if reason is not None:
        lines.append(f"STRUCT {reason} FAIL")
        lines.append(f"ARSS {label} {ctx.t} FAIL")
        return lines, False
    ok = True
    for sp in range(ctx.t + 1):
        test = rank_one(ctx, sp)
        classes_iter = all_morphism_params(test, seq.end)
        through_g = StrictFactorizer(seq.g, test)
        generators = _hom_generators(seq.end, test)
        classes = 0
        factored = 0
        good = True
        for params in classes_iter:
            h = morphism_from_params(test, seq.end, params)
            classes += 1
            split = _splits(h, generators)
            chi = through_g.solve(h)
            if chi is not None:
                factored += 1
            if (chi is not None) == split:
                good = False
        mark = "PASS" if good else "FAIL"
        lines.append(f"TEST s'={sp} classes={classes} factored={factored} "
                     f"{mark}")
        ok = ok and good
    lines.append(f"ARSS {label} {ctx.t} {'PASS' if ok else 'FAIL'}")
    return lines, ok


def end_ring_is_local(f: MonObject) -> bool:
    """Whether the non-invertible endomorphism classes of f are closed
    under addition.

    Invertibility is judged in the homotopy category, so projective
    summands do not spoil the answer.  Classes are taken modulo omega;
    both invertibility and addition descend to those classes.
    """
    ctx = f.ctx
    iso_by_class = {}
    for params in all_morphism_params(f, f):
        key = tuple(ctx.reduce_mod_omega(c) for c in params)
        iso_by_class[key] = is_iso_in_homotopy(
            morphism_from_params(f, f, params))
    non_isos = [key for key, flag in iso_by_class.items() if not flag]
    for k1 in non_isos:
        for k2 in non_isos:
            total = tuple(ctx.residue_add(r1, r2) for r1, r2 in zip(k1, k2))
            if iso_by_class[total]:
                return False
    return True
