"""Objects and morphisms of the monomorphism category.

An object is an injective map between free modules of the same finite rank
over the local ring, recorded as a square matrix f with nonzero determinant
whose cokernel is killed by omega (every elementary-divisor exponent is at
most t).  A morphism f -> f' is a pair of matrices (psi1, psi0) making the
evident square commute: psi0 @ f == f' @ psi1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (CokernelNotOmegaTorsion, ContextMismatch, NotComposable,
                     NonSquare, NotMono, SquareNotCommuting)
from .linalg import (INFINITY, MatS, SnfResult, block, diag_pi, identity, mat,
                     snf, zeros)
from .rings import RingCtx


@dataclass(frozen=True)
class MonObject:
    """An object: square matrix over S, injective, omega-torsion cokernel."""

    ctx: RingCtx
    mat: MatS

    def __post_init__(self):
        if self.mat.ctx != self.ctx:
            raise ContextMismatch("object matrix carries a different ring context")
        if self.mat.rows != self.mat.cols:
            raise NonSquare(
                f"object matrix is {self.mat.rows}x{self.mat.cols}")
        if not self.mat.in_ring():
            raise NotMono("object matrix has entries outside the local ring")
        svals = self.smith.svals
        if any(s is INFINITY for s in svals):
            raise NotMono("object matrix has zero determinant")
        if any(s > self.ctx.t for s in svals):
            raise CokernelNotOmegaTorsion(
                f"elementary divisor exponent {max(svals)} exceeds t={self.ctx.t}")

    @property
    def n(self) -> int:
        return self.mat.rows

    @cached_property
    def smith(self) -> SnfResult:
        """mat = U @ diag(pi^s) @ V: the source of svals, inverses, partner."""
        return snf(self.mat)

    @property
    def svals(self) -> tuple:
        """Elementary-divisor exponents, weakly increasing."""
        return self.smith.svals

    @cached_property
    def partner_mat(self) -> MatS:
        """omega f^{-1} = V^{-1} diag(pi^(t-s)) U^{-1}: the partner's matrix."""
        exps = [self.ctx.t - s for s in self.svals]
        return self.smith.v_inv @ diag_pi(self.ctx, exps) @ self.smith.u_inv

    def partner(self) -> "MonObject":
        """The dual object with exponents t - s_i (reversed order)."""
        return MonObject(self.ctx, self.partner_mat)

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


def cokernel_exponents(obj: MonObject) -> tuple:
    """Exponents of the cyclic summands of coker(f), zeros dropped."""
    return tuple(s for s in obj.svals if s > 0)


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
    return RModuleObj(obj.ctx, cokernel_exponents(obj))


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
    """Raise if (psi1, psi0) is not a morphism src -> dst."""
    if src.ctx != dst.ctx or psi1.ctx != src.ctx or psi0.ctx != src.ctx:
        raise ContextMismatch("morphism pieces carry different ring contexts")
    if psi1.rows != dst.n or psi1.cols != src.n:
        raise NonSquare(f"psi1 must be {dst.n}x{src.n}, got {psi1.rows}x{psi1.cols}")
    if psi0.rows != dst.n or psi0.cols != src.n:
        raise NonSquare(f"psi0 must be {dst.n}x{src.n}, got {psi0.rows}x{psi0.cols}")
    if not psi1.in_ring() or not psi0.in_ring():
        raise NotMono("morphism entries must lie in the local ring")
    if not (psi0 @ src.mat - dst.mat @ psi1).is_zero():
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


def direct_sum_morphism(p: MonMorphism, q: MonMorphism) -> MonMorphism:
    ctx = p.ctx
    return MonMorphism(
        direct_sum(p.src, q.src), direct_sum(p.dst, q.dst),
        block(ctx, [[p.psi1, None], [None, q.psi1]]),
        block(ctx, [[p.psi0, None], [None, q.psi0]]))


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
