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
h o sigma is a unit for one of the generators sigma of Hom(Z, X).

The verifier decides each class in parameter coordinates.
``morphism_from_params`` is S-linear in its parameters, so the class with
parameters c is h = sum_j c_j tau_j over the generators tau_j of
Hom(X, Z), and its stacked right-hand side and its scalars
(h o sigma).psi1 are the same combinations of those of the tau_j.  These
are read off the tau_j once per (g, test object).  A class then costs a
few sums over its parameters, one back-substitution and one exact check
of the solution; h is built only when it splits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add, mul

from .category import (MonMorphism, MonObject, composes_to,
                       identity_morphism, rank_one, zero_morphism)
from .errors import (InternalInvariantError, NotComposable, NotIndecomposable,
                     ProjectiveObject)
from .homotopy import is_iso_in_homotopy
from .linalg import (MatS, back_substitute, mat, snf, solve_with_snf,
                     sums_equal, truncated_svals)
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


def _columns(ctx, columns) -> MatS:
    """The matrix with the given columns, each a tuple of entries."""
    return MatS(ctx, len(columns[0]), len(columns),
                tuple(x for row in zip(*columns) for x in row))


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
            _check_section(h, sigma, u)
            return True
    return False


def _check_section(h: MonMorphism, sigma: MonMorphism, u):
    """Raise unless sigma / u is a section of h, where u, the scalar of
    h o sigma, is a unit."""
    inv = h.ctx.one() / u
    section = MonMorphism(sigma.src, sigma.dst, sigma.psi1.scale(inv),
                          sigma.psi0.scale(inv))
    if not composes_to(h, section, identity_morphism(h.dst)):
        raise InternalInvariantError("split section does not compose back")


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
        self.through = through
        self.src = src
        self.a = _columns(through.ctx, [
            (through.psi1 @ sigma.psi1).entries
            + (through.psi0 @ sigma.psi0).entries
            for sigma in _hom_generators(src, through.src)])
        self.smith = snf(self.a)

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
        if not composes_to(through, chi, target):
            raise InternalInvariantError(
                "strict factorization does not compose back")
        return chi

    def factors(self, rhs: MatS, reduced: MatS) -> bool:
        """Whether a @ x == rhs has a solution over S, given
        reduced == U^-1 @ rhs for the Smith form of a.  The solution found
        is checked against a and rhs exactly."""
        sol = back_substitute(self.smith, reduced)
        if sol is None:
            return False
        if not sums_equal(rhs, [(self.a, sol)]):
            raise InternalInvariantError(
                "strict factorization does not compose back")
        return True


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
    if not composes_to(g, theta, zero_morphism(start, end)):
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
    before a class is enumerated.  Each class is decided from its
    parameters by ``_ClassCoordinates``; only a split class is built as a
    morphism, to check its section.

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
        coords = _ClassCoordinates(seq.g, test)
        classes = 0
        factored = 0
        good = True
        for params in classes_iter:
            split, factors = coords.verdict(params)
            classes += 1
            factored += factors
            if factors == split:
                good = False
        mark = "PASS" if good else "FAIL"
        lines.append(f"TEST s'={sp} classes={classes} factored={factored} "
                     f"{mark}")
        ok = ok and good
    lines.append(f"ARSS {label} {ctx.t} {'PASS' if ok else 'FAIL'}")
    return lines, ok


class _ClassCoordinates:
    """The classes h: test -> g.dst in parameter coordinates.

    The class with parameters c is h = sum_j c_j tau_j over the Hom
    generators tau_j, so (h o sigma_k).psi1 = sum_j c_j u_jk with
    u_jk = (tau_j o sigma_k).psi1, and h stacked as a right-hand side is
    sum_j c_j r_j with r_j = tau_j stacked, also after U^-1 of the
    factorizer's Smith form.  The u_jk and r_j are read off once.
    """

    def __init__(self, g: MonMorphism, test: MonObject):
        self.test = test
        self.end = g.dst
        self.factorizer = StrictFactorizer(g, test)
        self.sigmas = _hom_generators(self.end, test)
        taus = _hom_generators(test, self.end)
        self._units = [[(tau.psi1 @ sigma.psi1).at(0, 0) for tau in taus]
                       for sigma in self.sigmas]
        rhs = _columns(test.ctx, [tau.psi1.entries + tau.psi0.entries
                                  for tau in taus])
        self._rhs = rhs.to_rows()
        self._reduced = (self.factorizer.smith.u_inv @ rhs).to_rows()

    def split_scalars(self, params) -> tuple:
        """(h o sigma_k).psi1 for each generator sigma_k of Hom(end, test)."""
        return _combine(params, self._units)

    def rhs(self, params) -> MatS:
        """h stacked as one column: psi1, then psi0."""
        return MatS(self.test.ctx, len(self._rhs), 1,
                    _combine(params, self._rhs))

    def reduced(self, params) -> MatS:
        """U^-1 @ rhs(params), for the factorizer's Smith form."""
        return MatS(self.test.ctx, len(self._reduced), 1,
                    _combine(params, self._reduced))

    def verdict(self, params) -> tuple:
        """(splits, factors through g) for one class.  A split class is
        built and its section checked; a factorization is checked as
        a @ x == rhs, which is g o chi == h for chi = sum_k x_k sigma_k."""
        ctx = self.test.ctx
        scalars = self.split_scalars(params)
        k = next((k for k, u in enumerate(scalars) if ctx.is_unit(u)), None)
        if k is not None:
            _check_section(morphism_from_params(self.test, self.end, params),
                           self.sigmas[k], scalars[k])
        return k is not None, self.factorizer.factors(self.rhs(params),
                                                      self.reduced(params))


def _combine(params, rows) -> tuple:
    """sum_j params[j] * row[j] for each row."""
    return tuple(reduce(add, map(mul, params, row)) for row in rows)


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
