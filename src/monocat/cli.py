"""Command line interface.

Objects and morphisms travel as small JSON files whose scalar entries are
strings, so every value round-trips exactly.  They print in one canonical
form, from one writer: ``_json_object`` puts ", " between the members of
every object, and ``_matrix_json`` writes each matrix with no spaces.
Parsing accepts any JSON spacing.  One subcommand exists per
library construction, plus a deterministic property-suite runner.  Exit
status: 0 for success or a positive decision, 1 for a property violation
or a negative decision, 2 for malformed input, 3 for a failed internal
invariant (a defect in monocat).

Every subcommand is one row of ``COMMANDS``, and its function returns its
stdout text and exit code without writing anything.  ``main`` is the only
writer: it writes stdout, or the ``-o`` file, once, after the whole result
is formatted, so a command that fails leaves both untouched.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .almost_split import ar_sequence, tau, tau_gp, verify_right_almost_split
from .category import MonMorphism, MonObject, cokernel, decompose
from .checks import SUITES, run_suite
from .errors import InternalInvariantError, MonocatError, ParseError
from .homotopy import (cone, is_iso_in_homotopy, null_homotopy, rotate,
                       stable_hom, standard_triangle, suspend)
from .linalg import MatS
from .rings import RingCtx
from .stable import (check_fully_faithful, check_map_budget, format_lengths,
                     two_periodic_resolution)


# -- canonical serialization -------------------------------------------------

def _json_object(**members) -> str:
    """A JSON object of members already written as JSON text, in order."""
    return "{" + ", ".join([f'"{name}": {text}' for name, text in members.items()]) + "}"


def _ring_json(ctx: RingCtx) -> str:
    if ctx.kind == "int-local":
        return _json_object(kind='"int-local"', p=ctx.p)
    if ctx.coeff_q is not None:
        return _json_object(kind='"poly-local"', q=ctx.coeff_q)
    return _json_object(kind='"poly-local"')


# json.dumps with these separators would build this encoder on every call
_compact_json = json.JSONEncoder(separators=(",", ":")).encode


def _matrix_json(m, fmt) -> str:
    """Rows of ``m`` as a JSON array of scalar strings, each entry formatted
    by ``fmt`` (``format_scalar`` over S, ``format_residue`` over R)."""
    return _compact_json([[fmt(m.at(i, j)) for j in range(m.cols)] for i in range(m.rows)])


def dumps_object(obj: MonObject) -> str:
    return _json_object(ring=_ring_json(obj.ctx), t=obj.ctx.t,
                        matrix=_matrix_json(obj.mat, obj.ctx.format_scalar))


def dumps_morphism(psi: MonMorphism) -> str:
    return _json_object(source=dumps_object(psi.src), target=dumps_object(psi.dst),
                        psi1=_matrix_json(psi.psi1, psi.ctx.format_scalar),
                        psi0=_matrix_json(psi.psi0, psi.ctx.format_scalar))


def dumps_triangle(tri) -> str:
    return _json_object(a=dumps_object(tri.a), b=dumps_object(tri.b),
                        c=dumps_object(tri.c), u=dumps_morphism(tri.u),
                        v=dumps_morphism(tri.v), w=dumps_morphism(tri.w))


# -- parsing ------------------------------------------------------------------
# Work grows without limit in t and in the suites' --max-size and --iters: a
# one-shot `mon cone` of the identity on the 2x2 Q file [[1 + x, 2], [3, x]]
# takes 0.5 s at t = 512 and 2.3 s at t = 1024 (2-vCPU Xeon), and
# `check --suite sigma --iters 100000000` ran past 10 s.  Values above the
# bounds exit 2.  A file's own n is not capped: its cost is polynomial in
# the size of the file.
MAX_T = 512
MAX_SIZE = 16
MAX_ITERS = 10_000


def _integer(value, name: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{name} must be an integer")
    return value


def _field(payload: dict, name: str):
    if name not in payload:
        raise ParseError(f"missing field {name!r}")
    return payload[name]


def _context_from(payload: dict) -> RingCtx:
    ring = _field(payload, "ring")
    if not isinstance(ring, dict):
        raise ParseError("ring must be a JSON object")
    t = _integer(_field(payload, "t"), "t")
    if t > MAX_T:
        raise ParseError(f"t must be at most {MAX_T}")
    kind = _field(ring, "kind")
    if kind == "int-local":
        return RingCtx.int_local(_integer(_field(ring, "p"), "p"), t)
    if kind == "poly-local":
        q = ring.get("q")
        return RingCtx.poly_local(t, q=None if q is None else _integer(q, "q"))
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
    return MonObject(ctx, _parse_matrix(ctx, _field(payload, "matrix")))


def _load_payload(path: Path) -> dict:
    try:
        payload = json.loads(path.read_text())
    except RecursionError:
        raise ParseError("JSON nests too deeply") from None
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
        # an absolute ref replaces base
        return object_from_payload(_load_payload(base / ref))
    raise ParseError("object reference must be a path or an inline object")


def _require_one_ring(src: MonObject, dst: MonObject) -> None:
    if src.ctx != dst.ctx:
        raise ParseError("source and target live over different rings")


def load_morphism_file(path_str: str) -> MonMorphism:
    path = Path(path_str)
    payload = _load_payload(path)
    base = path.resolve().parent
    src = _resolve_object(_field(payload, "source"), base)
    dst = _resolve_object(_field(payload, "target"), base)
    _require_one_ring(src, dst)
    psi1 = _parse_matrix(src.ctx, _field(payload, "psi1"))
    psi0 = _parse_matrix(src.ctx, _field(payload, "psi0"))
    return MonMorphism(src, dst, psi1, psi0)


# -- subcommands ---------------------------------------------------------------
# Each takes its loaded positionals and the parsed arguments and returns
# (stdout text, exit code); `check` adds its stderr notes as a third item.

def _flag(name: str, flag: bool) -> tuple:
    return f"{name}: {'true' if flag else 'false'}", 0 if flag else 1


def _lines(lines: list, ok: bool) -> tuple:
    return "\n".join(lines), 0 if ok else 1


def _nullhomotopic(psi, _) -> tuple:
    witness = null_homotopy(psi)
    if witness is None:
        return "nullhomotopic: false", 1
    fmt = psi.ctx.format_scalar
    return ("nullhomotopic: true\n"
            f"s0: {_matrix_json(witness.s0, fmt)}\n"
            f"s1: {_matrix_json(witness.s1, fmt)}"), 0


def _stable_hom(src, dst, _) -> tuple:
    _require_one_ring(src, dst)
    return f"lengths: {format_lengths(stable_hom(src, dst).lengths)}", 0


def _resolve(obj, _) -> tuple:
    res = two_periodic_resolution(obj)
    fmt = obj.ctx.format_residue
    return (f"d0: {_matrix_json(res.f_bar, fmt)}\n"
            f"d1: {_matrix_json(res.fsig_bar, fmt)}"), 0


def _rotate(psi, _) -> tuple:
    rotated, comparison = rotate(standard_triangle(psi))
    return _json_object(rotated=dumps_triangle(rotated),
                        comparison=dumps_morphism(comparison)), 0


def _ar_seq(obj, _) -> tuple:
    seq = ar_sequence(obj)
    return _json_object(tau_f=dumps_object(seq.tau_f), middle=dumps_object(seq.middle),
                        end=dumps_object(seq.end), theta=dumps_morphism(seq.theta),
                        g=dumps_morphism(seq.g)), 0


def _require_at_least(args, bounds) -> None:
    """Refuse (exit 2) any option below its lower bound, or above its
    upper bound when one is given."""
    for option, low, *high in bounds:
        value = getattr(args, option.replace("-", "_"))
        if value < low:
            raise ValueError(f"--{option} must be at least {low}")
        if high and value > high[0]:
            raise ValueError(f"--{option} must be at most {high[0]}")


def _dim(args) -> int:
    """``--dim``, refused (exit 2) below 0: it is a Krull dimension."""
    _require_at_least(args, (("dim", 0),))
    return args.dim


def _check(args) -> tuple:
    _require_at_least(args, (("iters", 0, MAX_ITERS),
                             ("max-size", 1, MAX_SIZE), ("max-t", 1, MAX_T)))
    names = [args.suite] if args.suite else list(SUITES)
    results = [run_suite(name, seed=args.seed, iters=args.iters,
                         max_size=args.max_size, max_t=args.max_t)
               for name in names]
    notes = "".join(f"{r.name} first failure: trial {r.first_failure[0]}: "
                    f"{r.first_failure[1]}\n"
                    for r in results if r.first_failure is not None)
    out, code = _lines([r.summary() for r in results],
                       all(r.ok for r in results))
    return out, code, notes


def _faithful(args) -> tuple:
    _require_at_least(args, (("max-t", 2, MAX_T),))
    lines, all_ok = [], True
    # the largest t has the most maps: refuse it first
    check_map_budget(RingCtx.int_local(args.p, args.max_t), 1)
    for t in range(2, args.max_t + 1):
        more, ok = check_fully_faithful(RingCtx.int_local(args.p, t), t)
        lines += more
        all_ok = all_ok and ok
    return _lines(lines, all_ok)


# -- wiring ---------------------------------------------------------------------

POSITIONAL_HELP = {"object": "object file", "morphism": "morphism file",
                   "source": "source object file",
                   "target": "target object file"}
OBJ, MOR = ("object",), ("morphism",)
OUT = (("-o",), {"dest": "out", "metavar": "PATH",
                 "help": "write the result here instead of stdout"})
DIM = (("--dim",), {"type": int, "default": 0,
                    "help": "declared ambient dimension (default 0)"})

# (name, positionals, accepts -o, help, further options, function)
COMMANDS = (
    ("validate", OBJ, False,
     "check an object file against the category invariants", (),
     lambda f, _: (f"OK n={f.n} svals={format_lengths(f.svals)}", 0)),
    ("sigma", OBJ, True, "emit the partner object", (),
     lambda f, _: (dumps_object(f.partner()), 0)),
    ("suspend", OBJ, True, "emit the shifted object", (),
     lambda f, _: (dumps_object(suspend(f)), 0)),
    ("cone", MOR, True, "emit the mapping cone", (),
     lambda psi, _: (dumps_object(cone(psi)), 0)),
    ("triangle", MOR, True, "emit the standard triangle of a morphism", (),
     lambda psi, _: (dumps_triangle(standard_triangle(psi)), 0)),
    ("rotate", MOR, True,
     "rotate the standard triangle and emit the comparison", (), _rotate),
    ("decompose", OBJ, False,
     "print the diagonal exponents of the Smith form", (),
     lambda f, _: (f"svals: {format_lengths(decompose(f))}", 0)),
    ("coker", OBJ, False, "print the invariant exponents of the cokernel", (),
     lambda f, _: (f"exps: {format_lengths(cokernel(f).exps)}", 0)),
    ("is-projective", OBJ, False,
     "decide projectivity (exit 1 when not projective)", (),
     lambda f, _: _flag("projective", f.is_projective())),
    ("nullhomotopic", MOR, False,
     "decide null-homotopy and print a witness when one exists", (),
     _nullhomotopic),
    ("stable-hom", ("source", "target"), False,
     "invariant factors of Hom modulo homotopy", (), _stable_hom),
    ("iso-test", MOR, False, "decide invertibility up to homotopy", (),
     lambda psi, _: _flag("iso", is_iso_in_homotopy(psi))),
    ("resolve", OBJ, False,
     "print the two alternating differentials of the periodic resolution "
     "over the quotient ring", (), _resolve),
    ("tau", OBJ, True, "emit the Auslander-Reiten translate", (DIM,),
     lambda f, args: (dumps_object(tau(f, _dim(args))), 0)),
    ("tau-gp", OBJ, False, "print the translate of the cokernel module",
     (DIM,),
     lambda f, args: (
         f"exps: {format_lengths(tau_gp(cokernel(f), _dim(args)).exps)}", 0)),
    ("ar-seq", OBJ, True,
     "emit the almost split sequence ending at the object", (), _ar_seq),
    ("ar-verify", OBJ, False,
     "verify the right-almost-split property by enumeration", (),
     lambda f, _: _lines(*verify_right_almost_split(ar_sequence(f)))),
    ("check", (), False, "run seeded property suites",
     ((("--suite",), {"choices": SUITES,
                      "help": "run one suite (default: all)"}),
      (("--seed",), {"type": int, "default": 0}),
      (("--iters",), {"type": int, "default": 100}),
      (("--max-size",), {"type": int, "default": 3}),
      (("--max-t",), {"type": int, "default": 3})),
     _check),
    ("faithful", (), False,
     "compare stable Hom lengths against the brute-force oracle for all "
     "indecomposable pairs",
     ((("--p",), {"type": int, "default": 2, "help": "prime (default 2)"}),
      (("--max-t",), {"type": int, "default": 3,
                      "help": "largest exponent t to test (default 3)"})),
     _faithful),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `mon` parser, built on the first call and shared by every later
    one in the process, so no caller may mutate it.  ``parse_args`` returns a
    fresh namespace each time, and help width is read when help is printed.
    """
    ap = argparse.ArgumentParser(
        prog="mon",
        description="exact monomorphism-category calculator")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, positionals, out, help_text, options, func in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for arg in positionals:
            p.add_argument(arg, help=POSITIONAL_HELP[arg])
        for flags, kwargs in ((OUT,) if out else ()) + options:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=func, positionals=positionals)
    return ap


def _load(name: str, path: str):
    if name == "morphism":
        return load_morphism_file(path)
    return load_object_file(path)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        loaded = [_load(name, getattr(args, name)) for name in args.positionals]
        out, code, *notes = args.func(*loaded, args)
        text = out + "\n" if out else ""
        if getattr(args, "out", None):
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
        sys.stderr.write("".join(notes))
        return code
    except (ParseError, OSError, json.JSONDecodeError, KeyError, TypeError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MonocatError as exc:
        print(f"violation: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
