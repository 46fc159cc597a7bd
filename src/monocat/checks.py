"""Seeded property suites shared by the command line and the test suite.

Each suite drives one construction over deterministic random instances and
counts the trials that satisfy the checked law.  A suite stops early only
when a trial asks for more enumeration than the budget allows
(``ParametersTooLarge``); otherwise a regression surfaces as a reduced
count in the summary line, never as a crash half way through a run.  The
result also keeps the first failing trial: its index and the library error
it raised, or "law false" when it returned a false verdict.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .almost_split import tau
from .category import (compose, decompose, identity_morphism,
                       partner_morphism, rank_one)
from .errors import MonocatError, ParametersTooLarge
from .homotopy import (complete_square, cone, cone_maps,
                       factor_through_projective, null_homotopy, octahedron,
                       standard_triangle, suspend_morphism,
                       triangle_composite_witnesses)
from .linalg import identity, sums_equal
from .rings import RingCtx
from .sampling import random_morphism, random_null_homotopic, random_object
from .stable import resolution_is_exact, two_periodic_resolution


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: int
    total: int
    first_failure: tuple | None = None  # (trial index, reason)

    @property
    def ok(self) -> bool:
        return self.passed == self.total

    def summary(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        return f"{self.name} {self.passed}/{self.total} {mark}"


def _draw_context(rng: random.Random, max_t: int, primes, allow_poly: bool
                  ) -> RingCtx:
    t = rng.randrange(1, max_t + 1)
    if allow_poly and rng.randrange(5) == 0:
        return RingCtx.poly_local(t, q=rng.choice(list(primes)))
    return RingCtx.int_local(rng.choice(list(primes)), t)


def _tally(name: str, iters: int, trial) -> SuiteResult:
    passed = 0
    first = None
    for i in range(iters):
        try:
            good = bool(trial(i))
            reason = "law false"
        except ParametersTooLarge:
            raise
        except MonocatError as exc:
            good = False
            reason = f"{type(exc).__name__}: {exc}"
        if good:
            passed += 1
        elif first is None:
            first = (i, reason)
    return SuiteResult(name, passed, iters, first)


SUITES = {}  # name on the command line -> suite, in definition order


def _suite(name: str, iters: int = 100, max_size: int = 3):
    """Make ``law(ctx, rng, max_size, i) -> bool`` the suite ``name``,
    registered in SUITES as ``name.lower()``.  The suite owns the preamble:
    seed -> ``random.Random`` -> a ring context drawn per trial before the
    law draws -> tally.  ``iters`` and ``max_size`` are its defaults."""
    def wrap(law):
        def suite(seed=0, iters=iters, max_size=max_size, max_t=3,
                  primes=(2, 3), allow_poly=True) -> SuiteResult:
            rng = random.Random(seed)

            def trial(i):
                ctx = _draw_context(rng, max_t, primes, allow_poly)
                return law(ctx, rng, max_size, i)

            return _tally(name, iters, trial)

        suite.__name__ = suite.__qualname__ = law.__name__
        suite.__doc__ = law.__doc__
        SUITES[name.lower()] = suite
        return suite
    return wrap


@_suite("SIGMA")
def suite_sigma(ctx, rng, max_size, i):
    """Partner laws: f f_S = omega I = f_S f and the flip is involutive."""
    f = random_object(ctx, rng, max_size)
    scaled = identity(ctx, f.n).scale(ctx.omega())
    return (sums_equal(scaled, [(f.mat, f.partner_mat)])
            and sums_equal(scaled, [(f.partner_mat, f.mat)])
            and f.partner().partner_mat == f.mat)


@_suite("TR1")
def suite_tr1(ctx, rng, max_size, i):
    """The cone of an identity morphism is projective."""
    f = random_object(ctx, rng, max_size)
    return cone(identity_morphism(f)).is_projective()


@_suite("NULLITY")
def suite_nullity(ctx, rng, max_size, i):
    """Consecutive composites in a standard triangle are null-homotopic."""
    src = random_object(ctx, rng, max_size)
    dst = random_object(ctx, rng, max_size)
    psi = random_morphism(src, dst, rng)
    tri = standard_triangle(psi)
    return triangle_composite_witnesses(tri) is not None


@_suite("TR2")
def suite_tr2(ctx, rng, max_size, i):
    """cone(inclusion) decomposes as shift(src) plus a projective."""
    src = random_object(ctx, rng, max_size)
    dst = random_object(ctx, rng, max_size)
    psi = random_morphism(src, dst, rng)
    _, inc, _ = cone_maps(psi)
    flipped = [ctx.t - s for s in src.svals]
    expected = tuple(sorted([0] * dst.n + [ctx.t] * dst.n + flipped))
    return decompose(cone(inc)) == expected


@_suite("TR3")
def suite_tr3(ctx, rng, max_size, i):
    """Homotopy-commuting squares complete to strict cone morphisms."""
    a = random_object(ctx, rng, max_size)
    mid = random_object(ctx, rng, max_size)
    b2 = random_object(ctx, rng, max_size)
    noise, _ = random_null_homotopic(a, b2, rng)
    if i % 2 == 0:
        top = random_morphism(a, mid, rng)
        right = random_morphism(mid, b2, rng)
        left = identity_morphism(a)
        bottom = compose(right, top) + noise
    else:
        left = random_morphism(a, mid, rng)
        bottom = random_morphism(mid, b2, rng)
        top = identity_morphism(a)
        right = compose(bottom, left) + noise
    tri, tri2, eta = complete_square(top, bottom, left, right)
    return (compose(eta, tri.v) == compose(tri2.v, right)
            and compose(tri2.w, eta) == compose(suspend_morphism(left), tri.w))


@_suite("TR4", iters=50, max_size=2)
def suite_tr4(ctx, rng, max_size, i):
    """Octahedra assemble and their comparison map is invertible."""
    x = random_object(ctx, rng, max_size)
    y = random_object(ctx, rng, max_size)
    z = random_object(ctx, rng, max_size)
    u = random_morphism(x, y, rng)
    v = random_morphism(y, z, rng)
    # octahedron raises NotExactTriangle unless its comparison map is
    # invertible, so only the bottom triangle is left to check
    return triangle_composite_witnesses(octahedron(u, v).bottom) is not None


@_suite("INV")
def suite_inv(ctx, rng, max_size, i):
    """Null-homotopy decisions agree for a morphism, its partner, and its
    suspension."""
    src = random_object(ctx, rng, max_size)
    dst = random_object(ctx, rng, max_size)
    psi = random_morphism(src, dst, rng)
    base = null_homotopy(psi) is not None
    swapped = null_homotopy(partner_morphism(psi)) is not None
    shifted = null_homotopy(suspend_morphism(psi)) is not None
    return base == swapped and base == shifted


@_suite("FACTOR")
def suite_factor(ctx, rng, max_size, i):
    """Null-homotopic morphisms factor exactly through a projective."""
    src = random_object(ctx, rng, max_size)
    dst = random_object(ctx, rng, max_size)
    psi, witness = random_null_homotopic(src, dst, rng)
    alpha, beta = factor_through_projective(psi, witness)
    return (alpha.dst.is_projective() and alpha.dst == beta.src
            and compose(beta, alpha) == psi)


@_suite("PERIODIC", iters=50, max_size=2)
def suite_periodic(ctx, rng, max_size, i):
    """The emitted 2-periodic complex over R is exact, by enumeration."""
    f = random_object(ctx, rng, max_size)
    return resolution_is_exact(two_periodic_resolution(f), ctx)


def suite_tau(seed=0, iters=0, max_size=0, max_t=4, primes=(2, 3),
              allow_poly=True) -> SuiteResult:
    """The translate squares to the identity for both parity branches.

    Deterministic: one trial per (t, s, parity) with 0 < s < t <= max_t.
    """
    p = list(primes)[0]
    combos = [(t, s, d)
              for t in range(2, max_t + 1)
              for s in range(1, t)
              for d in (0, 1)]
    results = iter(combos)

    def trial(i):
        t, s, d = next(results)
        f = rank_one(RingCtx.int_local(p, t), s)
        return decompose(tau(tau(f, d), d)) == decompose(f)

    return _tally("TAU", len(combos), trial)


SUITES["tau"] = suite_tau


def run_suite(name: str, **kwargs) -> SuiteResult:
    return SUITES[name](**kwargs)
