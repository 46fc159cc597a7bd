"""Auslander-Reiten translation and almost split sequences.

The translate is the identity when the declared ambient dimension is even
and swaps an object with its partner when it is odd.  For a rank-one
nonprojective object we build the almost split sequence ending at it by
lifting the classical chain of cyclic length modules, and a brute-force
verifier confirms the right-almost-split property: it enumerates every
morphism class from every indecomposable test object and decides strict
factorization with exact linear algebra over the base ring.  Hom(X, Y) is
free over S, with one generator per free cell of
``sampling.morphism_from_params``, and both decisions read that basis.  A
strict factorization through g has one unknown per generator of
Hom(test, middle), and its system depends on g and on the test object only,
so the verifier takes one Smith form per (g, test object) and solves each
class by back-substitution against it.  Split verdicts: the end Z has rank
one, so End(Z) is S, a local ring, and h: X -> Z splits exactly when
h o sigma is a unit for one of the generators sigma of Hom(Z, X); each
class costs one product per generator.
"""

from __future__ import annotations

from dataclasses import dataclass

from .category import (MonMorphism, MonObject, compose, composes_to,
                       identity_morphism, rank_one)
from .errors import (InternalInvariantError, NotComposable, NotIndecomposable,
                     ProjectiveObject)
from .homotopy import is_iso_in_homotopy
from .linalg import MatS, mat, snf, solve_with_snf, truncated_svals
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


def _hom_generators(src: MonObject, dst: MonObject) -> list:
    """The S-basis of Hom(src, dst): ``morphism_from_params`` at each unit
    parameter vector, one free scalar per cell."""
    ctx = src.ctx
    cells = src.n * dst.n
    return [morphism_from_params(src, dst, [ctx.one() if i == k else ctx.zero()
                                            for i in range(cells)])
            for k in range(cells)]


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
            if not composes_to(h, section, identity_morphism(h.dst)):
                raise InternalInvariantError(
                    "split section does not compose back")
            return True
    return False


class StrictFactorizer:
    """Strict factorizations through one morphism from one source object.

    Hom(src, through.src) is free over S on the generators sigma_k, so a
    factorization is chi = sum x_k sigma_k with through o chi == target:
    the linear system a @ x = (target.psi1, target.psi0) over S whose
    column k holds both components of through o sigma_k.  The matrix a
    depends only on ``through`` and on ``src``; a target enters through
    the right-hand side alone.  So a and its Smith form are built once,
    and each target costs one back-substitution.
    """

    def __init__(self, through: MonMorphism, src: MonObject):
        columns = [(through.psi1 @ sigma.psi1).entries
                   + (through.psi0 @ sigma.psi0).entries
                   for sigma in _hom_generators(src, through.src)]
        self.through = through
        self.src = src
        self.smith = snf(MatS(through.ctx, 2 * through.dst.n * src.n,
                              len(columns), tuple(x for row in zip(*columns)
                                                  for x in row)))

    def solve(self, target: MonMorphism):
        """A morphism chi with through o chi == target exactly, or None."""
        through = self.through
        if target.src != self.src or target.dst != through.dst:
            raise NotComposable("factorization endpoints disagree")
        rhs = target.psi1.entries + target.psi0.entries
        sol = solve_with_snf(self.smith, MatS(through.ctx, len(rhs), 1, rhs))
        if sol is None:
            return None
        chi = morphism_from_params(self.src, through.src, sol.entries)
        if compose(through, chi) != target:
            raise InternalInvariantError(
                "strict factorization does not compose back")
        return chi


def factor_strictly(through: MonMorphism, target: MonMorphism):
    """A morphism chi with through o chi == target exactly, or None."""
    return StrictFactorizer(through, target.src).solve(target)


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
        raise InternalInvariantError("almost split sequence is not exact")
    if _splits(g, _hom_generators(f, middle)):
        raise InternalInvariantError("almost split sequence splits")
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
    if reason is None and _splits(seq.g, _hom_generators(seq.end, seq.middle)):
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
