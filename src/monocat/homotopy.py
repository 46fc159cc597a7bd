"""Homotopies, mapping cones, triangles.

A morphism psi: f -> f' is null-homotopic when psi0 = f' s0 + s1 (omega f^{-1})
and psi1 = s0 f + (omega f'^{-1}) s1 for matrices s0, s1 over S.  The decision
procedure reduces to a diagonal congruence through the Smith forms of f and
f'.  Everything else here, from cones up to the octahedron axiom, is built
from that single solver plus explicit block matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .category import (MonMorphism, MonObject, compose, composes_to,
                       identity_morphism, projective_envelope)
from .errors import (ContextMismatch, InternalInvariantError, InvalidWitness,
                     NotComposable, NotExactTriangle,
                     SquaresNotHomotopyCommuting)
from .linalg import (MatS, add_products, block, identity,
                     solve_sandwich_congruence, sums_equal, zeros)


@dataclass(frozen=True)
class HomotopyWitness:
    """Matrices (s0, s1) exhibiting a morphism as null-homotopic."""

    s0: MatS
    s1: MatS


def witness_holds(psi: MonMorphism, w: HomotopyWitness) -> bool:
    """Check both defining identities of a null-homotopy witness.

    psi0 == f' s0 + s1 f_sigma and psi1 == s0 f + f'_sigma s1 are each
    decided by ``sums_equal``: exactly, by cross-multiplying unreduced
    entries, with no product normalized."""
    f = psi.src
    g = psi.dst
    expect_shapes = (g.n, f.n)
    for s in (w.s0, w.s1):
        if (s.rows, s.cols) != expect_shapes or not s.in_ring():
            return False
    return (sums_equal(psi.psi0, [(g.mat, w.s0), (w.s1, f.partner_mat)])
            and sums_equal(psi.psi1, [(w.s0, f.mat), (g.partner_mat, w.s1)]))


def require_witness(psi: MonMorphism, w: HomotopyWitness):
    if not witness_holds(psi, w):
        raise InvalidWitness("claimed null-homotopy data fails its identities")


def null_homotopy(psi: MonMorphism) -> HomotopyWitness | None:
    """Decide null-homotopy; return a witness or None.

    psi is null-homotopic iff psi0 f == f' s0 f modulo omega has a solution
    s0 over S: conjugating by the Smith transforms of f and f' turns that
    into independent one-cell congruences, and s1 is then forced exactly.
    """
    ctx = psi.ctx
    f, g = psi.src, psi.dst
    lhs = psi.psi0 @ f.mat
    b = g.smith.u_inv @ lhs @ f.smith.v_inv
    y = solve_sandwich_congruence(g.svals, f.svals, b, ctx)
    if y is None:
        return None
    s0 = g.smith.v_inv @ y @ f.smith.u_inv
    num = lhs - g.mat @ s0 @ f.mat
    omega_inv = ctx.one() / ctx.omega()
    s1 = num.scale(omega_inv)
    if not s1.in_ring():
        raise InternalInvariantError("forced homotopy component left the ring")
    w = HomotopyWitness(s0, s1)
    require_witness(psi, w)
    return w


def null_morphism_from_data(src: MonObject, dst: MonObject,
                            s0: MatS, s1: MatS) -> tuple[MonMorphism, HomotopyWitness]:
    """Build the null-homotopic morphism generated by arbitrary (s0, s1)."""
    psi0 = add_products(dst.mat, s0, s1, src.partner_mat)
    psi1 = add_products(s0, src.mat, dst.partner_mat, s1)
    psi = MonMorphism(src, dst, psi1, psi0)
    return psi, HomotopyWitness(s0, s1)


def homotopic(a: MonMorphism, b: MonMorphism) -> bool:
    """Equality in the homotopy category."""
    return null_homotopy(a - b) is not None


def factor_through_projective(psi: MonMorphism, w: HomotopyWitness
                              ) -> tuple[MonMorphism, MonMorphism]:
    """Factor a null-homotopic morphism through the projective envelope of
    its target; returns (alpha, beta) with beta . alpha == psi exactly."""
    require_witness(psi, w)
    env, beta = projective_envelope(psi.dst)
    alpha = MonMorphism(psi.src, env,
                        block(psi.ctx, [[w.s1], [psi.psi1]]),
                        block(psi.ctx, [[w.s0], [psi.psi0]]))
    if not composes_to(beta, alpha, psi):
        raise InternalInvariantError(
            "projective factorization failed to compose back")
    return alpha, beta


@dataclass(frozen=True)
class StableHomModule:
    """Hom in the homotopy category as a finite module: sorted cyclic
    lengths, each between 1 and t; empty means the zero module."""

    lengths: tuple


def stable_hom(src: MonObject, dst: MonObject) -> StableHomModule:
    """Invariant factors of Hom(src, dst) modulo null-homotopy.

    In diagonal coordinates the group splits cellwise; the cell (j, i) with
    exponents s = src, s' = dst contributes a cyclic factor of length
    min(s'_j, t - s_i) - max(s'_j - s_i, 0) when that number is positive.
    """
    if src.ctx != dst.ctx:
        raise ContextMismatch("stable hom across ring contexts")
    t = src.ctx.t
    lengths = []
    for sj in dst.svals:
        for si in src.svals:
            ell = min(sj, t - si) - max(sj - si, 0)
            if ell > 0:
                lengths.append(ell)
    return StableHomModule(tuple(sorted(lengths)))


# ---------------------------------------------------------------------------
# suspension and cones


def suspend(obj: MonObject) -> MonObject:
    """Shift functor on objects: the negated partner matrix.

    The sign makes the square of the shift the identity on the nose.
    """
    return obj.shift


def suspend_morphism(psi: MonMorphism) -> MonMorphism:
    return MonMorphism(suspend(psi.src), suspend(psi.dst), psi.psi0, psi.psi1)


def cone(psi: MonMorphism) -> MonObject:
    """Mapping cone as a block object."""
    ctx = psi.ctx
    cmat = block(ctx, [[psi.dst.mat, psi.psi0],
                       [None, -psi.src.partner_mat]])
    return MonObject(ctx, cmat)


def cone_maps(psi: MonMorphism) -> tuple[MonObject, MonMorphism, MonMorphism]:
    """(cone, inclusion of the target, projection onto the shifted source)."""
    ctx = psi.ctx
    c = cone(psi)
    np, n = psi.dst.n, psi.src.n
    # a zero target would make a block row of one 0 x 0 block, which
    # ``block`` refuses; its inclusion is the n x 0 zero matrix
    inc_comp = (block(ctx, [[identity(ctx, np)], [zeros(ctx, n, np)]]) if np
                else zeros(ctx, n, 0))
    inc = MonMorphism(psi.dst, c, inc_comp, inc_comp)
    prj_comp = block(ctx, [[zeros(ctx, n, np), identity(ctx, n)]])
    prj = MonMorphism(c, suspend(psi.src), prj_comp, prj_comp)
    return c, inc, prj


def is_iso_in_homotopy(psi: MonMorphism) -> bool:
    """A morphism is invertible up to homotopy iff its cone is projective."""
    return cone(psi).is_projective()


@dataclass(frozen=True)
class Triangle:
    """A candidate triangle a -> b -> c -> (shift a)."""

    a: MonObject
    b: MonObject
    c: MonObject
    u: MonMorphism
    v: MonMorphism
    w: MonMorphism

    def __post_init__(self):
        if (self.u.src, self.u.dst) != (self.a, self.b):
            raise NotComposable("first morphism endpoints are wrong")
        if (self.v.src, self.v.dst) != (self.b, self.c):
            raise NotComposable("second morphism endpoints are wrong")
        if (self.w.src, self.w.dst) != (self.c, self.a.shift):
            raise NotComposable("third morphism must land in the shifted start")


def standard_triangle(psi: MonMorphism) -> Triangle:
    c, inc, prj = cone_maps(psi)
    return Triangle(psi.src, psi.dst, c, psi, inc, prj)


def triangle_composite_witnesses(tri: Triangle) -> tuple | None:
    """Witnesses for the three vanishing composites, or None if one fails."""
    out = []
    for first, second in ((tri.u, tri.v), (tri.v, tri.w),
                          (tri.w, suspend_morphism(tri.u))):
        w = null_homotopy(compose(second, first))
        if w is None:
            return None
        out.append(w)
    return tuple(out)


def rotate(tri: Triangle) -> tuple[Triangle, MonMorphism]:
    """Rotated triangle (b, c, shift a; v, w, -shift u) plus the comparison
    morphism cone(v) -> shift(a) realizing its exactness.

    The comparison is assembled from a null-homotopy of w . v; it is an
    isomorphism up to homotopy whenever the input triangle is exact.  Raises
    NotExactTriangle when a composite of the input fails to vanish.
    """
    witnesses = triangle_composite_witnesses(tri)
    if witnesses is None:
        raise NotExactTriangle("a composite in the triangle is not null-homotopic")
    iso = MonMorphism(cone(tri.v), tri.w.dst,
                      block(tri.v.ctx, [[tri.w.psi1, witnesses[1].s0]]),
                      block(tri.v.ctx, [[tri.w.psi0, witnesses[1].s1]]))
    rotated = Triangle(tri.b, tri.c, tri.w.dst,
                       tri.v, tri.w, -suspend_morphism(tri.u))
    return rotated, iso


# ---------------------------------------------------------------------------
# completing squares (third axiom)


def complete_square(top: MonMorphism, bottom: MonMorphism,
                    left: MonMorphism, right: MonMorphism
                    ) -> tuple[Triangle, Triangle, MonMorphism]:
    """Complete a homotopy-commuting square to a morphism of cones.

    The square is

        top.src  --top-->    top.dst
          |left                |right
        bottom.src --bottom-> bottom.dst

    with right . top ~ bottom . left.  Returns the standard triangles of top
    and bottom together with eta: cone(top) -> cone(bottom) making both
    connecting squares commute strictly.
    """
    if left.src != top.src or left.dst != bottom.src:
        raise NotComposable("left comparison map has wrong endpoints")
    if right.src != top.dst or right.dst != bottom.dst:
        raise NotComposable("right comparison map has wrong endpoints")
    w = null_homotopy(compose(right, top) - compose(bottom, left))
    if w is None:
        raise SquaresNotHomotopyCommuting(
            "the square does not commute up to homotopy")
    tri, tri2 = standard_triangle(top), standard_triangle(bottom)
    return tri, tri2, _cone_map(tri, tri2, left, right, w.s0, w.s1)


def _cone_map(tri: Triangle, tri2: Triangle, left: MonMorphism, right: MonMorphism,
              s0: MatS | None, s1: MatS | None) -> MonMorphism:
    """eta: cone(tri.u) -> cone(tri2.u) for the square of ``complete_square``
    with null-homotopy (s0, s1) of its defect, checked; None stands for a
    zero block."""
    ctx = left.ctx
    return MonMorphism(tri.c, tri2.c,
                       block(ctx, [[right.psi1, s0], [None, left.psi0]]),
                       block(ctx, [[right.psi0, s1], [None, left.psi1]]))


# ---------------------------------------------------------------------------
# the octahedron


@dataclass(frozen=True)
class Octahedron:
    """Data of the composition axiom for first: x -> y and second: y -> z.

    ``bottom`` is the candidate triangle on the three cones; ``comparison``
    exhibits its third object cone(second) as isomorphic (up to homotopy) to
    the cone of ``to_composite``, matching the candidate maps with the
    standard inclusion and projection of that cone.
    """

    tri_first: Triangle
    tri_composite: Triangle
    tri_second: Triangle
    to_composite: MonMorphism   # cone(first) -> cone(second . first)
    to_second: MonMorphism      # cone(second . first) -> cone(second)
    connecting: MonMorphism     # cone(second) -> shift cone(first)
    bottom: Triangle
    comparison: MonMorphism     # cone(second) -> cone(to_composite)
    comparison_witness: HomotopyWitness


def octahedron(first: MonMorphism, second: MonMorphism) -> Octahedron:
    """Assemble the octahedron of a composable pair and verify it.

    All comparison identities are checked on construction: the projection
    side strictly, the inclusion side through an explicit closed-form
    witness, and invertibility of the comparison map through the cone
    criterion.  Raises NotExactTriangle when a check fails.
    """
    if first.dst != second.src:
        raise NotComposable("octahedron needs composable morphisms")
    ctx = first.ctx
    tri_first, tri_composite, tri_second = map(
        standard_triangle, (first, compose(second, first), second))
    # both squares commute strictly, the composite being second . first, so
    # the null-homotopy of each defect is zero
    to_composite = _cone_map(tri_first, tri_composite,
                             identity_morphism(first.src), second, None, None)
    to_second = _cone_map(tri_composite, tri_second, first,
                          identity_morphism(second.dst), None, None)
    cu = tri_first.c
    cv = tri_second.c
    # connecting map: project cone(second) to shift(y), then include into
    # shift(cone first)
    connecting = compose(suspend_morphism(tri_first.v), tri_second.w)
    bottom = Triangle(cu, tri_composite.c, cv,
                      to_composite, to_second, connecting)

    cphi, inc_phi, prj_phi = cone_maps(to_composite)
    nz, ny, nx = second.dst.n, first.dst.n, first.src.n
    comp = block(ctx, [[identity(ctx, nz), None],
                       [zeros(ctx, nx, nz), None],
                       [None, identity(ctx, ny)],
                       [None, zeros(ctx, nx, ny)]])
    comparison = MonMorphism(cv, cphi, comp, comp)

    # projection after the comparison equals the connecting map strictly
    if not composes_to(prj_phi, comparison, connecting):
        raise NotExactTriangle("projection side of the octahedron fails")
    # comparison after the middle map differs from the standard inclusion
    # by a null-homotopic morphism with a closed-form witness
    diff = compose(comparison, to_second) - inc_phi
    sblock = block(ctx, [[zeros(ctx, nz, nz), None],
                         [None, zeros(ctx, nx, nx)],
                         [zeros(ctx, ny, nz), None],
                         [None, -identity(ctx, nx)]])
    w = HomotopyWitness(sblock, sblock)
    require_witness(diff, w)
    if not is_iso_in_homotopy(comparison):
        raise NotExactTriangle("octahedron comparison map is not invertible")
    return Octahedron(tri_first, tri_composite, tri_second,
                      to_composite, to_second, connecting,
                      bottom, comparison, w)
