"""Auslander-Reiten translation and almost split sequences.

The translate is the identity when the declared ambient dimension is even
and swaps an object with its partner when it is odd.  For a rank-one
nonprojective object we build the almost split sequence ending at it by
lifting the classical chain of cyclic length modules, and a brute-force
verifier confirms the right-almost-split property: it enumerates every
morphism class from every indecomposable test object and decides each one
by two valuation thresholds, with no linear system.  Hom(X, Y) is free
over S, with one generator per cell of the diagonal coordinates
(``sampling.cell_shifts``): the pi-scaled product of a line of Y's Smith
transforms with a line of X's (``SnfResult.columns`` and ``rows``).  A
test object pi^s' is diagonal with identity transforms, so its generators
are the other side's lines, pi-scaled, and it takes no Smith form.
``factor_strictly`` solves for a strict factorization in those
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .category import (MonMorphism, MonObject, composes_to,
                       identity_morphism, rank_one, zero_morphism)
from .errors import (InternalInvariantError, NotComposable, NotIndecomposable,
                     ProjectiveObject)
from .linalg import (MatS, _residue_svals, mat, solve_linear, sums_equal,
                     truncated_svals)
from .rings import INFINITY
from .sampling import cell_shifts, class_residues, morphism_from_params
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


_SPLIT = "g is a split epimorphism"


@dataclass(frozen=True)
class ArSequence:
    """An almost split sequence 0 -> tau_f -> middle -> end -> 0."""
    tau_f: MonObject
    middle: MonObject
    end: MonObject
    theta: MonMorphism
    g: MonMorphism

    @cached_property
    def failure(self) -> str | None:
        """The structure verdict, checked once per sequence: None when the
        sequence is componentwise split exact and g, onto an end of rank
        one, is no split epimorphism, else a short reason."""
        reason = _exactness_failure(self.tau_f, self.middle, self.end, self.theta, self.g)
        if reason is None and _splits(self.g, _hom_generators(self.end, self.middle)):
            return _SPLIT
        return reason


def _hom_generators(src: MonObject, dst: MonObject) -> list:
    """The S-basis of Hom(src, dst), one generator per (target row j,
    source column i) cell, row-major: ``morphism_from_params`` at a unit
    vector.  With src = U D V and dst = U' D' V', its psi1 is
    pi^k1 V'^-1 E_ji V and its psi0 is pi^k0 U' E_ji U^-1, and A E_ji B
    is column j of A times row i of B: one product of two lines each."""
    return _test_generators(src, dst, ((c1 @ r1, c0 @ r0) for (c1, c0), (r1, r0)
                                       in product(dst.smith.columns, src.smith.rows)))


def _test_generators(src: MonObject, dst: MonObject, lines) -> list:
    """The generators (pi^k1 b1, pi^k0 b0) of Hom(src, dst), checked, one
    per cell with shifts (k1, k0) and ``lines`` (b1, b0).  The one builder
    of generators: ``_hom_generators`` passes its line products, and when
    one end is a test object ``rank_one(ctx, s')``, whose Smith transforms
    are identities, the generators are pi-scaled ``lines``,
    ``dst.smith.columns`` when the test is src and ``src.smith.rows`` when
    it is dst.  The test object takes no Smith form."""
    pi = src.ctx.pi_pow
    return [MonMorphism(src, dst, b1.scale(pi(k1)) if k1 else b1,
                        b0.scale(pi(k0)) if k0 else b0)
            for (b1, b0), (k1, k0) in zip(lines, cell_shifts(src, dst), strict=True)]


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
            inv = ctx.one() / u
            section = MonMorphism(sigma.src, sigma.dst, sigma.psi1.scale(inv),
                                  sigma.psi0.scale(inv))
            if not composes_to(h, section, identity_morphism(h.dst)):
                raise InternalInvariantError("split section does not compose back")
            return True
    return False


def factor_strictly(through: MonMorphism, target: MonMorphism):
    """A morphism chi with through o chi == target exactly, or None.

    Hom(target.src, through.src) is free over S on the generators
    sigma_k, so chi = sum x_k sigma_k solves the linear system
    a @ x = target, each morphism taken as one column of its psi1 entries
    then its psi0 entries, column k of a being through o sigma_k.
    """
    if target.dst != through.dst:
        raise NotComposable("factorization endpoints disagree")
    ctx = through.ctx
    a = _columns(ctx, [(through.psi1 @ sigma.psi1).entries
                       + (through.psi0 @ sigma.psi0).entries
                       for sigma in _hom_generators(target.src, through.src)])
    x = solve_linear(a, _columns(ctx, [target.psi1.entries
                                       + target.psi0.entries]))
    if x is None:
        return None
    chi = morphism_from_params(target.src, through.src, x.entries)
    if not composes_to(through, chi, target):
        raise InternalInvariantError(
            "strict factorization does not compose back")
    return chi


def _factor_threshold(g: MonMorphism, test: MonObject, tau_gen: MonMorphism):
    """The least valuation mu of the lambda_k in S with
    g o sigma_k = lambda_k tau_gen, over the generators sigma_k of
    Hom(test, g.src) (INFINITY when all are zero), tau_gen generating
    Hom(test, g.dst).  The test object is ``rank_one(ctx, s')``, so the
    sigma_k are the pi-scaled ``g.src.smith.columns``
    (``_test_generators``).  lambda_k is read off psi1 and checked on
    psi0."""
    ctx = g.ctx
    mu = INFINITY
    for sigma in _test_generators(test, g.src, g.src.smith.columns):
        lam = (g.psi1 @ sigma.psi1).at(0, 0) / tau_gen.psi1.at(0, 0)
        if not (ctx.in_ring(lam) and sums_equal(tau_gen.psi0.scale(lam),
                                                [(g.psi0, sigma.psi0)])):
            raise InternalInvariantError(
                "strict factorization does not compose back")
        mu = min(mu, ctx.valuation(lam))
    return mu


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
    seq = ArSequence(start, middle, f, theta, g)
    if seq.failure == _SPLIT:
        raise InternalInvariantError("almost split sequence splits")
    if seq.failure is not None:
        raise InternalInvariantError("almost split sequence is not exact")
    return seq


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
    morphisms into seq.end are enumerated by the residue in R = S/(omega)
    of their one free parameter; factorization and split-epi decisions are
    both invariant under that reduction, so the classes cover everything.
    A class must factor strictly through seq.g exactly when it is not a
    split epimorphism.  Split verdicts come from the generators of
    Hom(seq.end, test), so seq.end must have rank one; any other end raises
    NotIndecomposable before a class is enumerated.

    X = test and Z = seq.end have rank one, so Hom(X, Z) = S tau,
    Hom(Z, X) = S sigma and the class with parameter c is c tau.  End(Z)
    is the local ring S, so c tau splits exactly when c u is a unit,
    u = (tau o sigma).psi1: when v = val(c), read on the residue of c, is
    0 and u is a unit.  Let sigma_k generate Hom(X, seq.g.src); each
    g o sigma_k is lambda_k tau.  The strict factorization system
    a x = c r (column k of a is g o sigma_k stacked, r is tau stacked)
    reads a = r lambda^T with r != 0, so it is solvable over S exactly
    when c lies in the ideal (lambda_k) = pi^mu S: when v >= mu, mu the
    least val(lambda_k) (INFINITY when all are zero, as is v for the zero
    class).  So each test object takes one ``_splits`` test, whose section
    check runs when u is a unit, and one mu; every class is still
    enumerated and counted.  The test object is diagonal with identity
    Smith transforms, so tau, sigma and the sigma_k are pi-scaled lines of
    seq.end's and seq.g.src's transforms (``_test_generators``): no test
    object takes a Smith form, and none of these generators a matrix
    product.

    Returns (lines, ok): one TEST line per exponent and a final ARSS
    summary line.
    """
    if seq.end.n != 1:
        raise NotIndecomposable("the verifier needs an end of rank one")
    ctx = seq.end.ctx
    label = ",".join(str(v) for v in seq.end.svals)
    if seq.failure is not None:
        return [f"STRUCT {seq.failure} FAIL", f"ARSS {label} {ctx.t} FAIL"], False
    lines, ok = [], True
    for sp in range(ctx.t + 1):
        test = rank_one(ctx, sp)
        residues = class_residues(test, seq.end)
        (tau_gen,) = _test_generators(test, seq.end, seq.end.smith.columns)
        unit = _splits(tau_gen, _test_generators(seq.end, test, seq.end.smith.rows))
        mu = _factor_threshold(seq.g, test, tau_gen)
        classes = 0
        factored = 0
        good = True
        for r in residues:
            v = ctx.residue_valuation(r)
            split = unit and v == 0
            factors = v >= mu
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


def _iso_classes(f: MonObject) -> tuple:
    """R in its class order, and whether each class of End(f) is
    invertible in the homotopy category, keyed by the indices into R of
    its parameters, the keys in ``itertools.product`` order.

    Each class is decided in the Smith coordinates of f = U D V, with
    D = diag(pi^s) and D_sigma = diag(pi^(t-s)).  The class with
    parameters c is h = (V^-1 B1(c) V, U B0(c) U^-1)
    (``morphism_from_params``), so
    cone(h) = diag(U, V^-1) C diag(V, U^-1) with C = [[D, B0(c)],
    [0, -D_sigma]].  The outer factors are invertible over S, so the
    cone's Smith exponents are those of C.  They are at most t, as
    C [[D_sigma, B1(c)], [0, -D]] = omega I (B0 D = D B1), so h is
    invertible exactly when C's exponents capped at t, which C modulo
    omega decides, are each 0 or t.  No morphism, cone object or Smith
    transform of f is built.
    """
    ctx, n, t = f.ctx, f.n, f.ctx.t
    residues = class_residues(f, f)
    b0 = [[ctx.residue_mul(r, pi_k) for r in residues]
          for pi_k in (ctx.reduce_mod_omega(ctx.pi_pow(k0))
                       for _, k0 in cell_shifts(f, f))]
    size = 2 * n
    template = [ctx.residue_zero()] * (size * size)
    for j, s in enumerate(f.svals):
        template[j * size + j] = ctx.reduce_mod_omega(ctx.pi_pow(s))
        template[(n + j) * (size + 1)] = ctx.reduce_mod_omega(
            -ctx.pi_pow(t - s))
    slots = [j * size + n + i for j in range(n) for i in range(n)]

    def is_iso(key) -> bool:
        entries = template[:]
        for slot, cell, k in zip(slots, b0, key):
            entries[slot] = cell[k]
        rows = [entries[i:i + size] for i in range(0, size * size, size)]
        return all(v == 0 or v == t for v in _residue_svals(ctx, rows, t))

    return residues, {key: is_iso(key) for key in
                      product(range(len(residues)), repeat=n * n)}


def end_ring_is_local(f: MonObject) -> bool:
    """Whether the non-invertible endomorphism classes of f are closed
    under addition.

    Invertibility is judged in the homotopy category, so projective
    summands do not spoil the answer.  Classes are taken modulo omega;
    both invertibility and addition descend to those classes, and
    ``_iso_classes`` decides each.

    The non-invertible classes N are closed under addition exactly when
    N equals its additive span <N>: N lies in <N>, and in a finite group
    sums of multiples reach every negative.  <N> grows from {0}, for
    each m of N outside it, by the cosets span + k m up to the first k
    with k m in the span, and the first invertible class reached shows
    that N is not closed.  The zero class lies in N unless N is empty:
    it is invertible only when f is zero in the homotopy category, and
    then so is every class.
    """
    ctx = f.ctx
    residues, iso = _iso_classes(f)
    index = {r: i for i, r in enumerate(residues)}
    add = [[index[ctx.residue_add(a, b)] for b in residues] for a in residues]
    span = {(index[ctx.residue_zero()],) * (f.n * f.n)}
    for m in (key for key, flag in iso.items() if not flag):
        if m in span:
            continue
        rows = [add[i] for i in m]
        coset, grown = span, set(span)
        while True:
            coset = [tuple(row[i] for row, i in zip(rows, x)) for x in coset]
            if coset[0] in span:
                break
            if any(iso[x] for x in coset):
                return False
            grown.update(coset)
        span = grown
    return True
