"""Command line interface.

Objects and morphisms travel as small JSON files whose scalar entries are
strings, so every value round-trips exactly.  One subcommand exists per
library construction, plus a deterministic property-suite runner.  Exit
status: 0 for success or a positive decision, 1 for a property violation
or a negative decision, 2 for malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .almost_split import ar_sequence, tau, tau_gp, verify_right_almost_split
from .category import MonMorphism, MonObject, cokernel, decompose
from .checks import SUITES, run_suite
from .errors import MonocatError, ParseError
from .homotopy import (cone, is_iso_in_homotopy, null_homotopy, rotate,
                       stable_hom, standard_triangle, suspend)
from .linalg import MatS
from .rings import RingCtx
from .stable import (check_fully_faithful, format_lengths,
                     two_periodic_resolution)


# -- canonical serialization -------------------------------------------------
# objects and morphisms print with ", " between top-level members and no
# spaces inside matrix arrays; parsing accepts any JSON spacing

def _ring_json(ctx: RingCtx) -> str:
    if ctx.kind == "int-local":
        return f'{{"kind": "int-local", "p": {ctx.p}}}'
    if ctx.coeff_q is not None:
        return f'{{"kind": "poly-local", "q": {ctx.coeff_q}}}'
    return '{"kind": "poly-local"}'


def _matrix_json(ctx: RingCtx, m: MatS) -> str:
    rows = []
    for i in range(m.rows):
        cells = ",".join(json.dumps(ctx.format_scalar(m.at(i, j)))
                         for j in range(m.cols))
        rows.append("[" + cells + "]")
    return "[" + ",".join(rows) + "]"


def _residue_matrix_json(ctx: RingCtx, m) -> str:
    rows = []
    for i in range(m.rows):
        cells = ",".join(json.dumps(ctx.format_residue(m.at(i, j)))
                         for j in range(m.cols))
        rows.append("[" + cells + "]")
    return "[" + ",".join(rows) + "]"


def dumps_object(obj: MonObject) -> str:
    return (f'{{"ring": {_ring_json(obj.ctx)}, "t": {obj.ctx.t}, '
            f'"matrix": {_matrix_json(obj.ctx, obj.mat)}}}')


def dumps_morphism(psi: MonMorphism) -> str:
    return (f'{{"source": {dumps_object(psi.src)}, '
            f'"target": {dumps_object(psi.dst)}, '
            f'"psi1": {_matrix_json(psi.ctx, psi.psi1)}, '
            f'"psi0": {_matrix_json(psi.ctx, psi.psi0)}}}')


def dumps_triangle(tri) -> str:
    return (f'{{"a": {dumps_object(tri.a)}, "b": {dumps_object(tri.b)}, '
            f'"c": {dumps_object(tri.c)}, "u": {dumps_morphism(tri.u)}, '
            f'"v": {dumps_morphism(tri.v)}, "w": {dumps_morphism(tri.w)}}}')


# -- parsing ------------------------------------------------------------------

def _context_from(payload: dict) -> RingCtx:
    ring = payload["ring"]
    t = payload["t"]
    if not isinstance(t, int) or isinstance(t, bool):
        raise ParseError("t must be an integer")
    kind = ring["kind"]
    if kind == "int-local":
        p = ring["p"]
        if not isinstance(p, int) or isinstance(p, bool):
            raise ParseError("p must be an integer")
        return RingCtx.int_local(p, t)
    if kind == "poly-local":
        q = ring.get("q")
        if q is not None and (not isinstance(q, int) or isinstance(q, bool)):
            raise ParseError("q must be an integer")
        return RingCtx.poly_local(t, q=q)
    raise ParseError(f"unknown ring kind {kind!r}")


def _parse_matrix(ctx: RingCtx, rows) -> MatS:
    if (not isinstance(rows, list) or not rows
            or any(not isinstance(r, list) or not r for r in rows)):
        raise ParseError("matrix must be a non-empty list of non-empty rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError("matrix rows have unequal lengths")
    entries = []
    for row in rows:
        for cell in row:
            if not isinstance(cell, str):
                raise ParseError("matrix entries must be scalar strings")
            entries.append(ctx.parse_scalar(cell))
    return MatS(ctx, len(rows), width, tuple(entries))


def object_from_payload(payload: dict) -> MonObject:
    ctx = _context_from(payload)
    return MonObject(ctx, _parse_matrix(ctx, payload["matrix"]))


def _load_payload(path: Path) -> dict:
    payload = json.loads(path.read_text())
    if not isinstance(payload, dict):
        raise ParseError("file does not hold a JSON object")
    return payload


def load_object_file(path_str: str) -> MonObject:
    return object_from_payload(_load_payload(Path(path_str)))


def _resolve_object(ref, base: Path) -> MonObject:
    """An object reference: inline payload or a path relative to the file
    that mentioned it."""
    if isinstance(ref, dict):
        return object_from_payload(ref)
    if isinstance(ref, str):
        path = Path(ref)
        if not path.is_absolute():
            path = base / path
        return object_from_payload(_load_payload(path))
    raise ParseError("object reference must be a path or an inline object")


def load_morphism_file(path_str: str) -> MonMorphism:
    path = Path(path_str)
    payload = _load_payload(path)
    base = path.resolve().parent
    src = _resolve_object(payload["source"], base)
    dst = _resolve_object(payload["target"], base)
    psi1 = _parse_matrix(src.ctx, payload["psi1"])
    psi0 = _parse_matrix(src.ctx, payload["psi0"])
    return MonMorphism(src, dst, psi1, psi0)


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(text + "\n")
    else:
        print(text)


# -- subcommands ---------------------------------------------------------------

def cmd_validate(args) -> int:
    obj = load_object_file(args.object)
    print(f"OK n={obj.n} svals={format_lengths(obj.svals)}")
    return 0


def cmd_sigma(args) -> int:
    obj = load_object_file(args.object)
    _emit(args, dumps_object(obj.partner()))
    return 0


def cmd_suspend(args) -> int:
    obj = load_object_file(args.object)
    _emit(args, dumps_object(suspend(obj)))
    return 0


def cmd_cone(args) -> int:
    psi = load_morphism_file(args.morphism)
    _emit(args, dumps_object(cone(psi)))
    return 0


def cmd_triangle(args) -> int:
    psi = load_morphism_file(args.morphism)
    _emit(args, dumps_triangle(standard_triangle(psi)))
    return 0


def cmd_rotate(args) -> int:
    psi = load_morphism_file(args.morphism)
    rotated, comparison = rotate(standard_triangle(psi))
    _emit(args, f'{{"rotated": {dumps_triangle(rotated)}, '
                f'"comparison": {dumps_morphism(comparison)}}}')
    return 0


def cmd_decompose(args) -> int:
    obj = load_object_file(args.object)
    print(f"svals: {format_lengths(decompose(obj))}")
    return 0


def cmd_coker(args) -> int:
    obj = load_object_file(args.object)
    print(f"exps: {format_lengths(cokernel(obj).exps)}")
    return 0


def cmd_is_projective(args) -> int:
    obj = load_object_file(args.object)
    flag = obj.is_projective()
    print(f"projective: {'true' if flag else 'false'}")
    return 0 if flag else 1


def cmd_nullhomotopic(args) -> int:
    psi = load_morphism_file(args.morphism)
    witness = null_homotopy(psi)
    if witness is None:
        print("nullhomotopic: false")
        return 1
    print("nullhomotopic: true")
    print(f"s0: {_matrix_json(psi.ctx, witness.s0)}")
    print(f"s1: {_matrix_json(psi.ctx, witness.s1)}")
    return 0


def cmd_stable_hom(args) -> int:
    src = load_object_file(args.source)
    dst = load_object_file(args.target)
    if src.ctx != dst.ctx:
        raise ParseError("source and target live over different rings")
    print(f"lengths: {format_lengths(stable_hom(src, dst).lengths)}")
    return 0


def cmd_iso_test(args) -> int:
    psi = load_morphism_file(args.morphism)
    flag = is_iso_in_homotopy(psi)
    print(f"iso: {'true' if flag else 'false'}")
    return 0 if flag else 1


def cmd_resolve(args) -> int:
    obj = load_object_file(args.object)
    res = two_periodic_resolution(obj)
    print(f"d0: {_residue_matrix_json(obj.ctx, res.f_bar)}")
    print(f"d1: {_residue_matrix_json(obj.ctx, res.fsig_bar)}")
    return 0


def cmd_tau(args) -> int:
    obj = load_object_file(args.object)
    _emit(args, dumps_object(tau(obj, args.dim)))
    return 0


def cmd_tau_gp(args) -> int:
    obj = load_object_file(args.object)
    shifted = tau_gp(cokernel(obj), args.dim)
    print(f"exps: {format_lengths(shifted.exps)}")
    return 0


def cmd_ar_seq(args) -> int:
    seq = ar_sequence(load_object_file(args.object))
    _emit(args, f'{{"tau_f": {dumps_object(seq.tau_f)}, '
                f'"middle": {dumps_object(seq.middle)}, '
                f'"end": {dumps_object(seq.end)}, '
                f'"theta": {dumps_morphism(seq.theta)}, '
                f'"g": {dumps_morphism(seq.g)}}}')
    return 0


def cmd_ar_verify(args) -> int:
    seq = ar_sequence(load_object_file(args.object))
    lines, ok = verify_right_almost_split(seq)
    print("\n".join(lines))
    return 0 if ok else 1


def cmd_check(args) -> int:
    names = [args.suite] if args.suite else list(SUITES)
    all_ok = True
    for name in names:
        res = run_suite(name, seed=args.seed, iters=args.iters,
                        max_size=args.max_size, max_t=args.max_t)
        print(res.summary())
        if res.first_failure is not None:
            index, reason = res.first_failure
            print(f"{res.name} first failure: trial {index}: {reason}",
                  file=sys.stderr)
        all_ok = all_ok and res.ok
    return 0 if all_ok else 1


def cmd_faithful(args) -> int:
    all_ok = True
    for t in range(2, args.max_t + 1):
        lines, ok = check_fully_faithful(RingCtx.int_local(args.p, t), t)
        print("\n".join(lines))
        all_ok = all_ok and ok
    return 0 if all_ok else 1


# -- wiring ---------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mon",
        description="exact monomorphism-category calculator")
    sub = ap.add_subparsers(dest="command", required=True)

    def with_object(name, func, help_text, out=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("object", help="object file")
        if out:
            p.add_argument("-o", dest="out", metavar="PATH",
                           help="write the result here instead of stdout")
        p.set_defaults(func=func)
        return p

    def with_morphism(name, func, help_text, out=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("morphism", help="morphism file")
        if out:
            p.add_argument("-o", dest="out", metavar="PATH",
                           help="write the result here instead of stdout")
        p.set_defaults(func=func)
        return p

    with_object("validate", cmd_validate,
                "check an object file against the category invariants")
    with_object("sigma", cmd_sigma, "emit the partner object", out=True)
    with_object("suspend", cmd_suspend, "emit the shifted object", out=True)
    with_morphism("cone", cmd_cone, "emit the mapping cone", out=True)
    with_morphism("triangle", cmd_triangle,
                  "emit the standard triangle of a morphism", out=True)
    with_morphism("rotate", cmd_rotate,
                  "rotate the standard triangle and emit the comparison",
                  out=True)
    with_object("decompose", cmd_decompose,
                "print the diagonal exponents of the Smith form")
    with_object("coker", cmd_coker,
                "print the invariant exponents of the cokernel")
    with_object("is-projective", cmd_is_projective,
                "decide projectivity (exit 1 when not projective)")
    with_morphism("nullhomotopic", cmd_nullhomotopic,
                  "decide null-homotopy and print a witness when one exists")
    hom = sub.add_parser("stable-hom",
                         help="invariant factors of Hom modulo homotopy")
    hom.add_argument("source", help="source object file")
    hom.add_argument("target", help="target object file")
    hom.set_defaults(func=cmd_stable_hom)
    with_morphism("iso-test", cmd_iso_test,
                  "decide invertibility up to homotopy")
    with_object("resolve", cmd_resolve,
                "print the two alternating differentials of the periodic "
                "resolution over the quotient ring")
    tau_p = with_object("tau", cmd_tau,
                        "emit the Auslander-Reiten translate", out=True)
    tau_p.add_argument("--dim", type=int, default=0,
                       help="declared ambient dimension (default 0)")
    gp = with_object("tau-gp", cmd_tau_gp,
                     "print the translate of the cokernel module")
    gp.add_argument("--dim", type=int, default=0,
                    help="declared ambient dimension (default 0)")
    with_object("ar-seq", cmd_ar_seq,
                "emit the almost split sequence ending at the object",
                out=True)
    with_object("ar-verify", cmd_ar_verify,
                "verify the right-almost-split property by enumeration")

    chk = sub.add_parser("check", help="run seeded property suites")
    chk.add_argument("--suite", choices=list(SUITES),
                     help="run one suite (default: all)")
    chk.add_argument("--seed", type=int, default=0)
    chk.add_argument("--iters", type=int, default=100)
    chk.add_argument("--max-size", type=int, default=3)
    chk.add_argument("--max-t", type=int, default=3)
    chk.set_defaults(func=cmd_check)

    ff = sub.add_parser("faithful",
                        help="compare stable Hom lengths against the "
                             "brute-force oracle for all indecomposable "
                             "pairs")
    ff.add_argument("--p", type=int, default=2, help="prime (default 2)")
    ff.add_argument("--max-t", type=int, default=3,
                    help="largest exponent t to test (default 3)")
    ff.set_defaults(func=cmd_faithful)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, KeyError, TypeError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MonocatError as exc:
        print(f"violation: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
