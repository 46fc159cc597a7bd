"""The four benchmark workloads: seeded inputs and law-checked trials.

A workload is built from a namespace ``M`` of freshly imported monocat
modules (``M.rings``, ``M.linalg``, ...).  Trials reach the library only
through attribute lookups on those modules at call time, so the timing
wrappers of ``spans.py`` see every call, and nothing built by an earlier
import is mixed with classes of a later one.

Set-up turns the seed into plain inputs: ring parameters, entry tuples of
object matrices and the free scalars of morphisms.  Every trial rebuilds its
ring context and ``MonObject``s from those, so no cached Smith form or
partner carries over from one trial, or one pass, to the next.  A trial
returns normally when every law it checks holds and raises otherwise.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable


class LawViolation(Exception):
    """A trial's own correctness check failed."""


def require(cond, message: str):
    if not cond:
        raise LawViolation(message)


@dataclass(frozen=True)
class Ring:
    """Parameters of a ring context; ``prime`` None with poly means Q."""

    kind: str      # "int-local" | "poly-local"
    prime: int | None
    t: int

    def ctx(self, M):
        if self.kind == "int-local":
            return M.rings.RingCtx.int_local(self.prime, self.t)
        return M.rings.RingCtx.poly_local(self.t, q=self.prime)

    @property
    def label(self) -> str:
        if self.kind == "int-local":
            return "int-local"
        return f"poly-F{self.prime}" if self.prime else "poly-Q"


@dataclass(frozen=True)
class ObjSpec:
    """Entries of an object matrix plus the exponents it was built from."""

    n: int
    entries: tuple
    exps: tuple     # sorted elementary-divisor exponents

    def build(self, M, ctx):
        return M.category.MonObject(
            ctx, M.linalg.MatS(ctx, self.n, self.n, self.entries))


@dataclass
class Trial:
    kind: str
    ring: str                 # Ring.label
    run: Callable[[], None]


@dataclass
class Plan:
    """Inputs of one workload run.

    ``passes`` are the distinct input lists; a timed round runs all of
    them in order.  A traced run covers exactly the first ``trace_passes``
    of them.
    """

    passes: list
    trace_passes: int
    workdir: Path | None = None

    def close(self):
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
            with contextlib.suppress(OSError):  # still used by another run
                self.workdir.parent.rmdir()


# ---------------------------------------------------------------------------
# input generation


def make_passes(make_pass, count: int, min_trials: int) -> list:
    """``count`` passes from ``make_pass``, and more while they hold fewer
    than ``min_trials`` trials."""
    out = []
    while len(out) < count or sum(map(len, out)) < min_trials:
        out.append(make_pass())
    return out


def gen_object(M, ring: Ring, rng: random.Random, n: int,
               exps=None) -> ObjSpec:
    """diag(pi^exps) between two random unimodular matrices."""
    ctx = ring.ctx(M)
    if exps is None:
        exps = [rng.randrange(0, ring.t + 1) for _ in range(n)]
    u = M.linalg.random_unimodular(n, rng.randrange(2 ** 32), ctx)
    v = M.linalg.random_unimodular(n, rng.randrange(2 ** 32), ctx)
    m = u @ M.linalg.diag_pi(ctx, exps) @ v
    return ObjSpec(n, m.entries, tuple(sorted(exps)))


def gen_scalars(M, ring: Ring, rng: random.Random, count: int) -> tuple:
    ctx = ring.ctx(M)
    return tuple(M.sampling.random_scalar(ctx, rng) for _ in range(count))


def build_checked(M, ctx, spec: ObjSpec):
    obj = spec.build(M, ctx)
    require(obj.svals == spec.exps,
            f"Smith exponents {obj.svals} differ from generated {spec.exps}")
    return obj


# ---------------------------------------------------------------------------
# tri-int and tri-poly: triangulated-category axioms


def _tri_inputs(M, ring: Ring, kind: str, n: int, rng: random.Random):
    k = n * n
    if kind in ("nullity", "inv"):
        return (gen_object(M, ring, rng, n), gen_object(M, ring, rng, n),
                gen_scalars(M, ring, rng, k))
    if kind == "factor":
        return (gen_object(M, ring, rng, n), gen_object(M, ring, rng, n),
                gen_scalars(M, ring, rng, k), gen_scalars(M, ring, rng, k))
    if kind == "tr3":
        return (tuple(gen_object(M, ring, rng, n) for _ in range(3)),
                gen_scalars(M, ring, rng, k), gen_scalars(M, ring, rng, k),
                gen_scalars(M, ring, rng, k), gen_scalars(M, ring, rng, k),
                rng.randrange(2))
    if kind == "tr4":
        return (tuple(gen_object(M, ring, rng, n) for _ in range(3)),
                gen_scalars(M, ring, rng, k), gen_scalars(M, ring, rng, k))
    raise ValueError(kind)


def _composites_null(M, tri):
    """The three consecutive composites of a triangle are null-homotopic,
    each with a witness that satisfies its identities."""
    H, C = M.homotopy, M.category
    witnesses = H.triangle_composite_witnesses(tri)
    require(witnesses is not None, "a triangle composite is not null")
    pairs = ((tri.u, tri.v), (tri.v, tri.w),
             (tri.w, H.suspend_morphism(tri.u)))
    for (first, second), w in zip(pairs, witnesses):
        require(H.witness_holds(C.compose(second, first), w),
                "composite witness fails its identities")


def _trial_nullity(M, ring, src_spec, dst_spec, params):
    ctx = ring.ctx(M)
    src = build_checked(M, ctx, src_spec)
    dst = build_checked(M, ctx, dst_spec)
    psi = M.sampling.morphism_from_params(src, dst, params)
    _composites_null(M, M.homotopy.standard_triangle(psi))


def _trial_inv(M, ring, src_spec, dst_spec, params):
    H, C = M.homotopy, M.category
    ctx = ring.ctx(M)
    src = build_checked(M, ctx, src_spec)
    dst = build_checked(M, ctx, dst_spec)
    scaled = M.linalg.identity(ctx, src.n).scale(ctx.omega())
    require(src.mat @ src.partner_mat == scaled
            and src.partner_mat @ src.mat == scaled,
            "partner law f f_sigma = omega I fails")
    require(src.partner().partner_mat == src.mat, "partner is not involutive")
    psi = M.sampling.morphism_from_params(src, dst, params)
    base = H.null_homotopy(psi) is not None
    require(base == (H.null_homotopy(C.partner_morphism(psi)) is not None),
            "nullity differs between a morphism and its partner")
    require(base == (H.null_homotopy(H.suspend_morphism(psi)) is not None),
            "nullity differs between a morphism and its suspension")


def _generated_null(M, src, dst, s0, s1):
    """The null-homotopic morphism generated by (s0, s1); it must be
    decided null-homotopic."""
    ctx = src.ctx
    psi, w = M.homotopy.null_morphism_from_data(
        src, dst, M.linalg.MatS(ctx, dst.n, src.n, s0),
        M.linalg.MatS(ctx, dst.n, src.n, s1))
    require(M.homotopy.null_homotopy(psi) is not None,
            "generated null-homotopic morphism decided not null")
    return psi, w


def _trial_factor(M, ring, src_spec, dst_spec, s0, s1):
    ctx = ring.ctx(M)
    src = build_checked(M, ctx, src_spec)
    dst = build_checked(M, ctx, dst_spec)
    psi, w = _generated_null(M, src, dst, s0, s1)
    alpha, beta = M.homotopy.factor_through_projective(psi, w)
    require(alpha.dst.is_projective() and alpha.dst == beta.src,
            "factorization does not pass through a projective")
    require(M.category.compose(beta, alpha) == psi,
            "factorization does not compose back exactly")


def _trial_tr3(M, ring, specs, p_top, p_right, s0, s1, variant):
    H, C = M.homotopy, M.category
    ctx = ring.ctx(M)
    a, mid, b2 = (build_checked(M, ctx, s) for s in specs)
    noise, _ = _generated_null(M, a, b2, s0, s1)
    if variant == 0:
        top = M.sampling.morphism_from_params(a, mid, p_top)
        right = M.sampling.morphism_from_params(mid, b2, p_right)
        left = C.identity_morphism(a)
        bottom = C.compose(right, top) + noise
    else:
        left = M.sampling.morphism_from_params(a, mid, p_top)
        bottom = M.sampling.morphism_from_params(mid, b2, p_right)
        top = C.identity_morphism(a)
        right = C.compose(bottom, left) + noise
    _, _, eta = H.complete_square(top, bottom, left, right)
    _, inc1, prj1 = H.cone_maps(top)
    _, inc2, prj2 = H.cone_maps(bottom)
    require(C.compose(eta, inc1) == C.compose(inc2, right),
            "inclusion square of the completed map does not commute")
    require(C.compose(prj2, eta) == C.compose(H.suspend_morphism(left), prj1),
            "projection square of the completed map does not commute")


def _trial_tr4(M, ring, specs, p_u, p_v):
    H = M.homotopy
    ctx = ring.ctx(M)
    x, y, z = (build_checked(M, ctx, s) for s in specs)
    u = M.sampling.morphism_from_params(x, y, p_u)
    v = M.sampling.morphism_from_params(y, z, p_v)
    data = H.octahedron(u, v)
    require(H.is_iso_in_homotopy(data.comparison),
            "octahedron comparison is not an isomorphism")
    _composites_null(M, data.bottom)


_TRI_TRIALS = {"nullity": _trial_nullity, "inv": _trial_inv,
               "factor": _trial_factor, "tr3": _trial_tr3, "tr4": _trial_tr4}


def _tri_pass(M, rng, strata) -> list:
    out = []
    for ring, kind, n in strata:
        args = _tri_inputs(M, ring, kind, n, rng)
        fn = _TRI_TRIALS[kind]
        out.append(Trial(kind, ring.label,
                         lambda fn=fn, ring=ring, args=args: fn(M, ring, *args)))
    return out


KINDS = ("nullity", "inv", "tr3", "factor", "tr4")

# tri-int crosses every kind with p in {2, 3}, t in {1, 2, 3} and each size
# up to 3 (2 for the octahedron): 84 trials of 1-50 ms in one pass.
TRI_INT_STRATA = tuple(
    (Ring("int-local", p, t), kind, n)
    for p in (2, 3) for kind in KINDS
    for n in ((1, 2) if kind == "tr4" else (1, 2, 3))
    for t in (1, 2, 3))


# A full cross over F_q and Q would take minutes per pass.  Measured on a
# 2-vCPU VM: F_q nullity at n=3 0.15-3.6 s, F_q tr4 at n=2 0.5-2.2 s, Q
# nullity, inv and tr3 at n=2 (t=1) 0.6-8 s, one Q tr3 at n=2, t=2 58 s,
# a Q octahedron at n=2 5-23 s.  With Q and F_q nullity at those sizes a
# pass took 4.7-14.7 s depending on the seed, too uneven for a steady run.
# So tri-poly takes fixed (kind, n, t) strata: every kind at n=1 and n=2
# over F_2 and F_3 with t spread over 1..3 (n=3 only for factor, the
# cheapest kind there), and over Q every kind at n=1 plus factor at n=2.
# One pass is 26 trials and about 2.5 s.
def _poly_strata(q, cases):
    return [(Ring("poly-local", q, t), kind, n) for kind, n, t in cases]


TRI_POLY_STRATA = tuple(
    _poly_strata(2, (("nullity", 1, 3), ("nullity", 2, 2), ("inv", 1, 2),
                     ("inv", 2, 3), ("tr3", 1, 3), ("tr3", 2, 1),
                     ("factor", 1, 1), ("factor", 2, 2), ("factor", 3, 3),
                     ("tr4", 1, 2)))
    + _poly_strata(3, (("nullity", 1, 2), ("nullity", 2, 3), ("inv", 1, 3),
                       ("inv", 2, 1), ("tr3", 1, 2), ("tr3", 2, 1),
                       ("factor", 1, 3), ("factor", 2, 1), ("factor", 3, 2),
                       ("tr4", 1, 1)))
    + _poly_strata(None, (("nullity", 1, 2), ("inv", 1, 3), ("tr3", 1, 1),
                          ("factor", 1, 2), ("factor", 2, 1), ("tr4", 1, 1))))


def build_tri_int(M, seed: int, workdir: Path, passes: int = 1,
                  min_trials: int = 0) -> Plan:
    rng = random.Random(seed)
    return Plan(make_passes(lambda: _tri_pass(M, rng, TRI_INT_STRATA),
                            max(passes, 2), min_trials), trace_passes=2)


def build_tri_poly(M, seed: int, workdir: Path, passes: int = 1,
                   min_trials: int = 0) -> Plan:
    rng = random.Random(seed)
    return Plan(make_passes(lambda: _tri_pass(M, rng, TRI_POLY_STRATA),
                            max(passes, 2), min_trials), trace_passes=2)


# ---------------------------------------------------------------------------
# enum: the enumeration verifiers over a finite R


def _unit_object(M, ring: Ring, rng: random.Random, s: int):
    """Rank-one object u * pi^s with a seeded unit u."""
    ctx = ring.ctx(M)
    if ring.kind == "int-local":
        u = rng.choice([k for k in range(1, 12) if k % ring.prime])
        unit = Fraction(u, rng.choice([k for k in range(1, 6) if k % ring.prime]))
    else:
        unit = ctx.one() + ctx.pi() * M.sampling.random_scalar(ctx, rng)
    return ObjSpec(1, (unit * ctx.pi_pow(s),), (s,))


def _trial_ar(M, ring, spec):
    ctx = ring.ctx(M)
    f = build_checked(M, ctx, spec)
    seq = M.almost_split.ar_sequence(f)
    lines, ok = M.almost_split.verify_right_almost_split(seq)
    require(ok and lines[-1] == f"ARSS {spec.exps[0]} {ring.t} PASS",
            f"verifier rejected the almost split sequence: {lines[-1]}")


def _trial_ar_flipped(M, ring, spec):
    """Negative control: the middle term with its off-diagonal entry
    negated breaks exactness and must be rejected."""
    A = M.almost_split
    ctx = ring.ctx(M)
    seq = A.ar_sequence(build_checked(M, ctx, spec))
    m = seq.middle.mat
    flipped = M.category.MonObject(ctx, M.linalg.MatS(
        ctx, 2, 2, (m.at(0, 0), -m.at(0, 1), m.at(1, 0), m.at(1, 1))))
    lines, ok = A.verify_right_almost_split(
        A.ArSequence(seq.tau_f, flipped, seq.end, seq.theta, seq.g))
    require(not ok and lines[0].startswith("STRUCT"),
            "sign-flipped middle term was accepted")


def _trial_ar_split(M, ring, spec):
    """Negative control: the split sequence f -> f + f -> f must be
    rejected as a split epimorphism."""
    A, C = M.almost_split, M.category
    ctx = ring.ctx(M)
    f = build_checked(M, ctx, spec)
    middle = C.direct_sum(f, f)
    col = M.linalg.MatS(ctx, 2, 1, (ctx.one(), ctx.zero()))
    row = M.linalg.MatS(ctx, 1, 2, (ctx.zero(), ctx.one()))
    lines, ok = A.verify_right_almost_split(A.ArSequence(
        f, middle, f, C.MonMorphism(f, middle, col, col),
        C.MonMorphism(middle, f, row, row)))
    require(not ok and lines[0] == "STRUCT g is a split epimorphism FAIL",
            "split sequence was accepted")


def _trial_faithful(M, ring):
    lines, ok = M.stable.check_fully_faithful(ring.ctx(M), ring.t)
    require(ok and len(lines) == (ring.t + 1) ** 2,
            "stable Hom closed form disagrees with the module-side oracle")


def _trial_resolution(M, ring, spec):
    ctx = ring.ctx(M)
    res = M.stable.two_periodic_resolution(build_checked(M, ctx, spec))
    require(M.stable.resolution_is_exact(res, ctx),
            "two-periodic resolution is not exact")


def _trial_end_local(M, ring, spec):
    # stably, End(f) is local iff at most one summand pi^s is not
    # projective (0 < s < t): two such summands give two orthogonal
    # non-invertible idempotents summing to the identity
    expect = sum(1 for s in spec.exps if 0 < s < ring.t) <= 1
    got = M.almost_split.end_ring_is_local(build_checked(M, ring.ctx(M), spec))
    require(got == expect, f"end_ring_is_local gave {got} for {spec.exps}")


# Every (p, t, s) of the almost split verifier for p in {2, 3}, t in 2..4
# and F_2 with t in {2, 3} (0.02-0.6 s each), with a split control at every
# (ring, s) and a flipped one at every int-local (ring, s), the
# faithfulness report for t <= 3, exact resolutions for n <= 2 and
# endomorphism rings kept far under the 4096-class guard: the 2x2 case at
# p=2, t=3 alone takes 3.5-5 s and is left out.  One pass is 81 trials and
# about 4 s here.  With one control of each kind per ring at a seeded s,
# the median trial sat on the edge between the 2-3 ms trials (controls,
# small End rings) and the 4.5 ms and slower ones (resolutions), and
# trial_ms_p50 spread 0.19 over ten seeds; the controls at every s put it
# inside the first group.
def build_enum(M, seed: int, workdir: Path, passes: int = 1,
               min_trials: int = 0) -> Plan:
    rng = random.Random(seed)
    ar_rings = ([Ring("int-local", p, t) for p in (2, 3) for t in (2, 3, 4)]
                + [Ring("poly-local", 2, t) for t in (2, 3)])
    small_rings = ([Ring("int-local", p, t) for p in (2, 3) for t in (1, 2, 3)]
                   + [Ring("poly-local", 2, t) for t in (1, 2, 3)])
    local_cases = ([(Ring("int-local", p, t), 1)
                    for p in (2, 3) for t in (1, 2, 3, 4)]
                   + [(Ring("poly-local", 2, t), 1) for t in (1, 2, 3)]
                   + [(Ring("int-local", 2, 1), 2), (Ring("int-local", 2, 2), 2),
                      (Ring("int-local", 3, 1), 2), (Ring("poly-local", 2, 1), 2)])

    def one_pass():
        out = []
        for ring in ar_rings:
            for s in range(1, ring.t):
                spec = _unit_object(M, ring, rng, s)
                out.append(Trial("ar-verify", ring.label,
                                 lambda r=ring, sp=spec: _trial_ar(M, r, sp)))
                if ring.kind == "int-local":  # over F_2 the flip is a no-op
                    out.append(Trial("ar-flipped", ring.label,
                                     lambda r=ring, sp=spec: _trial_ar_flipped(M, r, sp)))
                out.append(Trial("ar-split", ring.label,
                                 lambda r=ring, sp=spec: _trial_ar_split(M, r, sp)))
        for ring in small_rings:
            if ring.kind == "int-local":
                out.append(Trial("faithful", ring.label,
                                 lambda r=ring: _trial_faithful(M, r)))
            for n in (1, 2):
                spec = gen_object(M, ring, rng, n)
                out.append(Trial("resolution", ring.label,
                                 lambda r=ring, sp=spec: _trial_resolution(M, r, sp)))
        for ring, n in local_cases:
            spec = gen_object(M, ring, rng, n)
            out.append(Trial("end-local", ring.label,
                             lambda r=ring, sp=spec: _trial_end_local(M, r, sp)))
        return out

    return Plan(make_passes(one_pass, passes, min_trials), trace_passes=1)


# ---------------------------------------------------------------------------
# cli: in-process `mon` commands over a seeded directory of files


def run_cli(M, argv):
    """monocat.cli.main(argv) with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = M.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_trial(M, kind, ring, argv, expect_code, check=None):
    def run():
        code, out, err = run_cli(M, argv)
        require(code == expect_code,
                f"mon {argv[0]} exited {code}, expected {expect_code}: "
                f"{err.strip()[:200]}")
        if expect_code == 2:
            require(err.startswith("error:"), "malformed input without error line")
        if check is not None:
            check(out)
    return Trial(kind, ring, run)


def _lengths(text: str) -> tuple:
    body = text.strip().split(": ", 1)[1]
    return tuple(int(x) for x in body.strip("[]").split(",") if x)


def _check_lengths(text: str, want: tuple):
    require(_lengths(text) == want, f"printed {text.strip()!r}")


def _stable_lengths(t, src_exps, dst_exps) -> tuple:
    """Cyclic lengths of stable Hom between sums of pi^s, computed here
    from the generated exponents so the printed ones are checked against an
    independent restatement of the closed form."""
    return tuple(sorted(ell for sj in dst_exps for si in src_exps
                        if (ell := min(sj, t - si) - max(sj - si, 0)) > 0))


def _parse_object(M, text):
    return M.cli.object_from_payload(json.loads(text))


def _scalar_rows(M, ctx, rows):
    return M.linalg.MatS(ctx, len(rows), len(rows[0]),
                         tuple(ctx.parse_scalar(c) for r in rows for c in r))


def _parse_morphism(M, payload):
    src = M.cli.object_from_payload(payload["source"])
    dst = M.cli.object_from_payload(payload["target"])
    return M.category.MonMorphism(src, dst,
                                  _scalar_rows(M, src.ctx, payload["psi1"]),
                                  _scalar_rows(M, src.ctx, payload["psi0"]))


class _CliFiles:
    """Writes one pass's object and morphism files into ``root``."""

    def __init__(self, M, root: Path):
        self.M = M
        self.root = root
        root.mkdir(parents=True)
        self.count = 0

    def write(self, text: str) -> str:
        self.count += 1
        path = self.root / f"f{self.count:03d}.json"
        path.write_text(text + "\n")
        return str(path)

    def obj(self, ring: Ring, spec: ObjSpec) -> str:
        return self.write(self.M.cli.dumps_object(
            spec.build(self.M, ring.ctx(self.M))))

    def morphism(self, ring: Ring, src_path, dst_path, psi1, psi0) -> str:
        """Endpoints are referenced by relative path, so the loader's path
        resolution runs too."""
        ctx = ring.ctx(self.M)
        rows = lambda m: [[ctx.format_scalar(m.at(i, j)) for j in range(m.cols)]
                          for i in range(m.rows)]
        return self.write(json.dumps({
            "source": Path(src_path).name, "target": Path(dst_path).name,
            "psi1": rows(psi1), "psi0": rows(psi0)}))


_MALFORMED = (
    "{\"ring\": {\"kind\": \"int-local\", \"p\": 2}, \"t\": 2, \"matrix\": [[\"1\"",
    '{"ring": {"kind": "int-local", "p": 2}, "t": 2, "matrix": [["1/0"]]}',
    '{"ring": {"kind": "int-local", "p": 3}, "t": 1, "matrix": [["1","0"],["2"]]}',
    '{"ring": {"kind": "p-adic", "p": 2}, "t": 2, "matrix": [["1"]]}',
    '{"ring": {"kind": "int-local", "p": 2}, "t": 2, "matrix": [[1]]}',
    '{"ring": {"kind": "int-local", "p": 4}, "t": 2, "matrix": [["1"]]}',
    '{"ring": {"kind": "int-local", "p": 2}, "t": 2}',
    '{"ring": {"kind": "int-local", "p": 2}, "t": 2, "matrix": [["x"]]}',
)

_VIOLATING = (
    '{"ring": {"kind": "int-local", "p": 2}, "t": 2, "matrix": [["2","4"],["1","2"]]}',
    '{"ring": {"kind": "int-local", "p": 3}, "t": 1, "matrix": [["9"]]}',
    '{"ring": {"kind": "poly-local", "q": 2}, "t": 2, "matrix": [["x","1"]]}',
)


# Over Q, `mon` prints scalars such as "(1/2)/(8 + 4*x - 10*x^2)" that its
# own parser rejects ("unbalanced parentheses"): a fractional constant term
# inside a quotient does not round-trip.  About a third of partners of
# random Q objects hit it, so Q takes part only in commands whose input
# and output stay polynomial (validate, decompose, coker, resolve, tau,
# stable-hom) until the parser is fixed.
def _cli_pass(M, root: Path, rng: random.Random) -> list:
    files = _CliFiles(M, root)
    out = []
    obj_rings = ([(Ring("int-local", p, t), n) for p, t, n in
                  ((2, 1, 1), (2, 2, 2), (2, 3, 3), (3, 1, 2), (3, 2, 3), (3, 3, 1))]
                 + [(Ring("poly-local", q, t), n) for q, t, n in
                    ((2, 2, 2), (3, 1, 2), (2, 3, 1), (None, 2, 1), (None, 1, 2))])
    objects = []
    for ring, n in obj_rings:
        spec = gen_object(M, ring, rng, n)
        objects.append((ring, spec, files.obj(ring, spec)))

    for ring, spec, path in objects:
        ctx = ring.ctx(M)
        svals = ",".join(str(s) for s in spec.exps)
        lab = ring.label

        def check_validate(text, spec=spec, svals=svals):
            require(text.strip() == f"OK n={spec.n} svals=[{svals}]",
                    f"validate printed {text.strip()!r}")

        def check_sigma(text, ring=ring, spec=spec):
            ctx = ring.ctx(M)
            f, g = spec.build(M, ctx), _parse_object(M, text)
            require(f.mat @ g.mat == M.linalg.identity(ctx, f.n).scale(ctx.omega()),
                    "sigma output is not the partner")
            require(g.partner().mat == f.mat, "sigma applied twice is not f")

        def check_suspend(text, ring=ring, spec=spec):
            ctx = ring.ctx(M)
            f, g = spec.build(M, ctx), _parse_object(M, text)
            require(M.homotopy.suspend(g).mat == f.mat,
                    "suspend applied twice is not f")

        def check_resolve(text, ring=ring, spec=spec):
            ctx = ring.ctx(M)
            lines = text.strip().splitlines()
            require([ln[:4] for ln in lines] == ["d0: ", "d1: "],
                    "resolve output malformed")
            d0, d1 = (_scalar_rows(M, ctx, json.loads(ln[4:])) for ln in lines)
            require(all(ctx.valuation(e) >= ctx.t for e in (d0 @ d1).entries)
                    and all(ctx.valuation(e) >= ctx.t for e in (d1 @ d0).entries),
                    "periodic differentials do not compose to zero mod omega")

        if ring.prime is not None or ring.kind == "int-local":
            out += [
                _cli_trial(M, "sigma", lab, ["sigma", path], 0, check_sigma),
                _cli_trial(M, "suspend", lab, ["suspend", path], 0, check_suspend),
            ]
        out += [
            _cli_trial(M, "validate", lab, ["validate", path], 0, check_validate),
            _cli_trial(M, "decompose", lab, ["decompose", path], 0,
                       lambda x, w=spec.exps: _check_lengths(x, w)),
            _cli_trial(M, "coker", lab, ["coker", path], 0,
                       lambda x, w=tuple(s for s in spec.exps if s): _check_lengths(x, w)),
            _cli_trial(M, "resolve", lab, ["resolve", path], 0, check_resolve),
        ]

    # stable Hom from every other object to a fresh 2x2 one over its ring
    for ring, a, pa in objects[::2]:
        b = gen_object(M, ring, rng, 2)
        want = _stable_lengths(ring.t, a.exps, b.exps)
        out.append(_cli_trial(M, "stable-hom", ring.label,
                              ["stable-hom", pa, files.obj(ring, b)], 0,
                              lambda x, w=want: _check_lengths(x, w)))

    # translate and almost split verification on rank-one objects
    for ring, s in ((Ring("int-local", 2, 3), 1), (Ring("int-local", 3, 2), 1),
                    (Ring("poly-local", 2, 2), 1), (Ring("poly-local", None, 2), 1)):
        spec = _unit_object(M, ring, rng, s)
        path = files.obj(ring, spec)

        def check_tau(text, ring=ring, spec=spec):
            require(_parse_object(M, text).mat == spec.build(M, ring.ctx(M)).mat,
                    "translate of a d=0 object moved it")

        out.append(_cli_trial(M, "tau", ring.label, ["tau", path], 0, check_tau))
        if ring.prime is not None:
            out.append(_cli_trial(
                M, "ar-verify", ring.label, ["ar-verify", path], 0,
                lambda x, s=s, t=ring.t: require(
                    x.strip().splitlines()[-1] == f"ARSS {s} {t} PASS",
                    "ar-verify did not pass")))

    # morphism files: random morphisms, generated null ones, identities
    for ring, n in ((Ring("int-local", 2, 2), 2), (Ring("int-local", 3, 3), 1),
                    (Ring("int-local", 2, 3), 2), (Ring("poly-local", 2, 2), 1),
                    (Ring("poly-local", 3, 1), 1)):
        ctx = ring.ctx(M)
        a, b = gen_object(M, ring, rng, n), gen_object(M, ring, rng, n)
        pa, pb = files.obj(ring, a), files.obj(ring, b)
        src, dst = a.build(M, ctx), b.build(M, ctx)
        psi = M.sampling.morphism_from_params(
            src, dst, gen_scalars(M, ring, rng, n * n))
        k = n * n
        null, _ = M.homotopy.null_morphism_from_data(
            src, dst, M.linalg.MatS(ctx, n, n, gen_scalars(M, ring, rng, k)),
            M.linalg.MatS(ctx, n, n, gen_scalars(M, ring, rng, k)))
        ident = M.linalg.identity(ctx, n)
        p_psi = files.morphism(ring, pa, pb, psi.psi1, psi.psi0)
        p_null = files.morphism(ring, pa, pb, null.psi1, null.psi0)
        p_id = files.morphism(ring, pa, pa, ident, ident)
        lab = ring.label

        def check_cone(text, n=n, ring=ring):
            c = _parse_object(M, text)
            require(c.n == 2 * n and c.ctx == ring.ctx(M), "cone has the wrong size")

        def check_triangle(text, n=n, psi=psi):
            data = json.loads(text)
            require(_parse_morphism(M, data["u"]) == psi,
                    "triangle does not start with the input morphism")
            require(M.cli.object_from_payload(data["c"]).n == 2 * n,
                    "triangle third object has the wrong size")

        def check_rotate(text):
            data = json.loads(text)
            require(M.homotopy.is_iso_in_homotopy(
                _parse_morphism(M, data["comparison"])),
                "rotation comparison is not an isomorphism")

        def check_witness(text, ring=ring, null=null):
            ctx = ring.ctx(M)
            lines = text.strip().splitlines()
            require(lines[0] == "nullhomotopic: true", "no witness printed")
            s0, s1 = (_scalar_rows(M, ctx, json.loads(ln[4:])) for ln in lines[1:3])
            require(M.homotopy.witness_holds(null, M.homotopy.HomotopyWitness(s0, s1)),
                    "printed witness fails its identities")

        out += [
            _cli_trial(M, "cone", lab, ["cone", p_psi], 0, check_cone),
            _cli_trial(M, "triangle", lab, ["triangle", p_psi], 0, check_triangle),
            _cli_trial(M, "rotate", lab, ["rotate", p_psi], 0, check_rotate),
            _cli_trial(M, "nullhomotopic", lab, ["nullhomotopic", p_null], 0,
                       check_witness),
            _cli_trial(M, "iso-test", lab, ["iso-test", p_id], 0,
                       lambda x: require(x.strip() == "iso: true", "identity not iso")),
        ]

    # a zero endomorphism of a nonprojective object is not an isomorphism
    ring = Ring("int-local", 2, 2)
    spec = _unit_object(M, ring, rng, 1)
    p1 = files.obj(ring, spec)
    zero = M.linalg.zeros(ring.ctx(M), 1, 1)
    out.append(_cli_trial(M, "iso-test", ring.label,
                          ["iso-test", files.morphism(ring, p1, p1, zero, zero)], 1,
                          lambda x: require(x.strip() == "iso: false",
                                            "zero map called iso")))
    # a pair that does not commute: psi0 f != f psi1
    one = M.linalg.identity(ring.ctx(M), 1)
    out.append(_cli_trial(M, "violating", ring.label,
                          ["cone", files.morphism(ring, p1, p1, zero, one)], 1))

    for text in _MALFORMED:
        out.append(_cli_trial(M, "malformed", "int-local",
                              ["validate", files.write(text)], 2))
    for text, cmd in zip(_VIOLATING, ("validate", "sigma", "decompose")):
        out.append(_cli_trial(M, "violating", "int-local",
                              [cmd, files.write(text)], 1))
    return out


def build_cli(M, seed: int, workdir: Path, passes: int = 1,
              min_trials: int = 0) -> Plan:
    rng = random.Random(seed)
    shutil.rmtree(workdir, ignore_errors=True)
    dirs = (workdir / f"pass{i}" for i in itertools.count())
    return Plan(make_passes(lambda: _cli_pass(M, next(dirs), rng),
                            max(passes, 2), min_trials),
                trace_passes=2, workdir=workdir)


BUILDERS = {"tri-int": build_tri_int, "tri-poly": build_tri_poly,
            "enum": build_enum, "cli": build_cli}

# Seconds one pass takes on the seed commit at host speed 1.0 (calib.py),
# measured on a 2-vCPU VM; the run sizes its input list from them, so
# --seconds sets how much distinct input a run holds while the seed alone
# fixes which.
PASS_SECONDS = {"tri-int": 1.15, "tri-poly": 2.85, "enum": 4.2, "cli": 1.05}

# Timed work of a run as a multiple of --seconds.  Which inputs the seed
# draws moves the tri-poly tail most (one stratum's trials range over 5x),
# so it gets the most distinct inputs.  tri-int at 0.5 (336 trials) let
# trial_ms_p50 spread 0.11 over ten seeds, 0.07 at 0.8 (588 trials).
TIME_SHARE = {"tri-int": 0.8, "tri-poly": 1.4, "enum": 1.0, "cli": 0.5}
