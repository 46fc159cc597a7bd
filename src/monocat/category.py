"""Objects and morphisms of the monomorphism category.

An object is an injective map between free modules of the same finite rank
over the local ring, recorded as a square matrix f with nonzero determinant
whose cokernel is killed by omega (every elementary-divisor exponent is at
most t).  A morphism f -> f' is a pair of matrices (psi1, psi0) making the
evident square commute: psi0 @ f == f' @ psi1.

Every morphism re-checks that square when it is built.  The two products
are never formed: ``linalg.sums_equal`` accumulates each entry of both
sides as an unreduced numerator over a denominator and compares them by
cross-multiplication, so no entry is brought to lowest terms (no gcd).
Checks that a composite equals a known morphism (``composes_to``) are
decided the same way.

An object validates through its Smith exponents over S/(pi^(t+1)): every
exponent of a valid object is at most t, so one elimination of the matrix
modulo pi^(t+1) reads them all off.  Only a matrix that fails falls back to
the exact Smith form over S, which tells a zero determinant from an
exponent above t.  The exact form with its transforms U, V is built on the
first read of ``smith``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import (CokernelNotOmegaTorsion, ContextMismatch, NotComposable,
                     NonSquare, NotMono, SquareNotCommuting)
from .linalg import (INFINITY, MatS, SnfResult, block, diag_pi, identity,
                     mat, snf, sums_equal, truncated_svals, zeros)
from .rings import RingCtx


@dataclass(frozen=True)
class MonObject:
    """An object: square matrix over S, injective, omega-torsion cokernel."""

    ctx: RingCtx
    mat: MatS
    # elementary-divisor exponents, weakly increasing
    svals: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mat.ctx != self.ctx:
            raise ContextMismatch("object matrix carries a different ring context")
        if self.mat.rows != self.mat.cols:
            raise NonSquare(
                f"object matrix is {self.mat.rows}x{self.mat.cols}")
        if not self.mat.in_ring():
            raise NotMono("object matrix has entries outside the local ring")
        e = self.ctx.t + 1
        svals = truncated_svals(self.mat, e)
        if e in svals:
            svals = self.smith.svals
            if any(s is INFINITY for s in svals):
                raise NotMono("object matrix has zero determinant")
            raise CokernelNotOmegaTorsion(
                f"elementary divisor exponent {max(svals)} exceeds t={self.ctx.t}")
        object.__setattr__(self, "svals", svals)

    @property
    def n(self) -> int:
        return self.mat.rows

    @cached_property
    def smith(self) -> SnfResult:
        """mat = U @ diag(pi^s) @ V: the source of the inverses and the
        partner.  Validation does not need it, so it is built on the first
        read, by the readers of U, V and their inverses."""
        return snf(self.mat)

    @cached_property
    def partner_mat(self) -> MatS:
        """omega f^{-1} = V^{-1} diag(pi^(t-s)) U^{-1}: the partner's matrix,
        as two matrix products.  Over Z_(p) the transforms and ``diag_pi``
        come in cleared form, so both products run on integer numerators;
        over k[x]_(x) an entry of V^{-1} diag(pi^(t-s)) has at most one
        nonzero term, so it is that term's product."""
        t, smith = self.ctx.t, self.smith
        return smith.v_inv @ diag_pi(self.ctx, [t - s for s in self.svals]) @ smith.u_inv

    @cached_property
    def shift(self) -> "MonObject":
        """The shifted object -f_sigma, built once and shared by every caller."""
        return MonObject(self.ctx, -self.partner_mat)

    @cached_property
    def _partner(self) -> "MonObject":
        return MonObject(self.ctx, self.partner_mat)

    def partner(self) -> "MonObject":
        """The dual object with exponents t - s_i (reversed order), built
        once and shared by every caller."""
        return self._partner

    def is_projective(self) -> bool:
        """Projective-injective objects are exactly those with every
        exponent 0 or t."""
        return all(s == 0 or s == self.ctx.t for s in self.svals)


def make_object(ctx: RingCtx, rows) -> MonObject:
    return MonObject(ctx, mat(ctx, rows))


def decompose(obj: MonObject) -> tuple:
    """Multiset of indecomposable summands, as pi-exponents.

    Every object splits as a direct sum of rank-one objects pi^s; the
    exponent list is a complete isomorphism invariant.
    """
    return obj.svals


@dataclass(frozen=True)
class RModuleObj:
    """A finite module over the quotient ring R = S/(omega), recorded by
    the exponents of its cyclic summands R/(pi^e), each in 1..t.

    An exponent equal to t is a free summand; those vanish in the stable
    category but matter for resolutions.
    """

    ctx: RingCtx
    exps: tuple

    def __post_init__(self):
        if any(not (1 <= e <= self.ctx.t) for e in self.exps):
            raise ValueError("cyclic exponents must lie in 1..t")

    def stable_exps(self) -> tuple:
        """Exponents with free summands dropped: the stable class."""
        return tuple(e for e in self.exps if e < self.ctx.t)


def cokernel(obj: MonObject) -> RModuleObj:
    """coker(f): one cyclic summand per exponent, zeros dropped."""
    return RModuleObj(obj.ctx, tuple(s for s in obj.svals if s > 0))


@dataclass(frozen=True)
class MonMorphism:
    """A morphism: psi1 on sources, psi0 on targets, strictly commuting."""

    src: MonObject
    dst: MonObject
    psi1: MatS
    psi0: MatS

    def __post_init__(self):
        check_morphism(self.src, self.dst, self.psi1, self.psi0)

    @property
    def ctx(self) -> RingCtx:
        return self.src.ctx

    def __add__(self, other: "MonMorphism") -> "MonMorphism":
        if (self.src, self.dst) != (other.src, other.dst):
            raise NotComposable("morphism sum needs equal endpoints")
        return MonMorphism(self.src, self.dst,
                           self.psi1 + other.psi1, self.psi0 + other.psi0)

    def __sub__(self, other: "MonMorphism") -> "MonMorphism":
        return self + (-other)

    def __neg__(self) -> "MonMorphism":
        return MonMorphism(self.src, self.dst, -self.psi1, -self.psi0)


def check_morphism(src: MonObject, dst: MonObject, psi1: MatS, psi0: MatS):
    """Raise if (psi1, psi0) is not a morphism src -> dst.

    The square psi0 @ f == f' @ psi1 is decided by ``sums_equal``, exactly
    and without normalizing either product."""
    if src.ctx != dst.ctx or psi1.ctx != src.ctx or psi0.ctx != src.ctx:
        raise ContextMismatch("morphism pieces carry different ring contexts")
    if psi1.rows != dst.n or psi1.cols != src.n:
        raise NonSquare(f"psi1 must be {dst.n}x{src.n}, got {psi1.rows}x{psi1.cols}")
    if psi0.rows != dst.n or psi0.cols != src.n:
        raise NonSquare(f"psi0 must be {dst.n}x{src.n}, got {psi0.rows}x{psi0.cols}")
    if not psi1.in_ring() or not psi0.in_ring():
        raise NotMono("morphism entries must lie in the local ring")
    if not sums_equal([(psi0, src.mat)], [(dst.mat, psi1)]):
        raise SquareNotCommuting("psi0 . f differs from f' . psi1")


def identity_morphism(obj: MonObject) -> MonMorphism:
    i = identity(obj.ctx, obj.n)
    return MonMorphism(obj, obj, i, i)


def zero_morphism(src: MonObject, dst: MonObject) -> MonMorphism:
    z = zeros(src.ctx, dst.n, src.n)
    return MonMorphism(src, dst, z, z)


def compose(g: MonMorphism, f: MonMorphism) -> MonMorphism:
    """g after f."""
    if f.dst != g.src:
        raise NotComposable("codomain of the first factor differs from the "
                            "domain of the second")
    return MonMorphism(f.src, g.dst, g.psi1 @ f.psi1, g.psi0 @ f.psi0)


def composes_to(g: MonMorphism, f: MonMorphism, target: MonMorphism) -> bool:
    """Whether g after f has the components of target, decided by
    ``sums_equal`` without forming the composite; the endpoints are the
    caller's to match."""
    return (sums_equal(target.psi1, [(g.psi1, f.psi1)])
            and sums_equal(target.psi0, [(g.psi0, f.psi0)]))


def partner_morphism(psi: MonMorphism) -> MonMorphism:
    """The induced morphism between partner objects: components swapped.

    Well-defined because psi1 @ (omega f^{-1}) == (omega f'^{-1}) @ psi0
    follows from the commuting square by multiplying by inverses on both
    sides.
    """
    return MonMorphism(psi.src.partner(), psi.dst.partner(), psi.psi0, psi.psi1)


def direct_sum(a: MonObject, b: MonObject) -> MonObject:
    if a.ctx != b.ctx:
        raise ContextMismatch("direct sum across ring contexts")
    return MonObject(a.ctx, block(a.ctx, [[a.mat, None], [None, b.mat]]))


def rank_one(ctx: RingCtx, s: int) -> MonObject:
    """The indecomposable object pi^s (0 <= s <= t)."""
    return MonObject(ctx, mat(ctx, [[ctx.pi_pow(s)]]))


def projective_envelope(obj: MonObject):
    """The projective cover data of an object in the monomorphism category.

    Returns (env, proj) where env is the projective object
    [[-partner, id], [0, f]] and proj: env -> obj is the surjection given by
    the second block coordinate in both components.
    """
    ctx = obj.ctx
    n = obj.n
    env_mat = block(ctx, [[-obj.partner_mat, identity(ctx, n)],
                          [None, obj.mat]])
    env = MonObject(ctx, env_mat)
    proj_comp = block(ctx, [[zeros(ctx, n, n), identity(ctx, n)]])
    proj = MonMorphism(env, obj, proj_comp, proj_comp)
    return env, proj
