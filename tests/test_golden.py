"""Golden digest of ``mon`` output.

A fixed list of in-process ``mon`` commands runs over seeded object and
morphism files written to a temporary directory: every object and morphism
subcommand on a few files per ring kind (Z_(2), Z_(3), F_2[x]_(x),
F_3[x]_(x), Q[x]_(x)), ``stable-hom`` pairs, the almost split commands on
rank-one objects, small ``check`` suites and ``faithful``.  The sha256 of
every command line, exit code and stdout must equal ``GOLDEN``.  A change
that is meant to leave the output alone must pass unchanged; a change that
alters the output on purpose records the new digest here and says why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random

from monocat.category import identity_morphism, rank_one
from monocat.checks import SUITES
from monocat.cli import dumps_morphism, dumps_object, main
from monocat.rings import RingCtx
from monocat.sampling import random_morphism, random_null_homotopic, random_object

GOLDEN = "ea51c24fa0fc869d4bef8327ddf3640be950977568a61f340ad0372ff5200aaf"

# (label, context, largest object size)
RINGS = [("z2t2", RingCtx.int_local(2, 2), 3),
         ("z2t3", RingCtx.int_local(2, 3), 2),
         ("z3t2", RingCtx.int_local(3, 2), 2),
         ("f2t2", RingCtx.poly_local(2, 2), 2),
         ("f3t2", RingCtx.poly_local(2, 3), 2),
         ("qt2", RingCtx.poly_local(2), 1)]

OBJECT_COMMANDS = [["validate"], ["sigma"], ["suspend"], ["decompose"],
                   ["coker"], ["is-projective"], ["resolve"], ["tau"],
                   ["tau", "--dim", "1"], ["tau-gp"], ["tau-gp", "--dim", "1"],
                   ["ar-seq"]]
MORPHISM_COMMANDS = [["cone"], ["triangle"], ["rotate"], ["nullhomotopic"],
                     ["iso-test"]]


def write_files(tmp_path) -> list:
    """The command list over files written to ``tmp_path``."""
    commands = []

    def put(name, text):
        (tmp_path / name).write_text(text)
        return name

    for label, ctx, size in RINGS:
        rng = random.Random(label)
        objs = [random_object(ctx, rng, size) for _ in range(3)]
        names = [put(f"{label}-o{i}.json", dumps_object(o))
                 for i, o in enumerate(objs)]
        for name in names:
            commands += [cmd + [name] for cmd in OBJECT_COMMANDS]
        commands += [["stable-hom", a, b] for a in names[:2] for b in names[:2]]
        for i, (src, dst) in enumerate([(objs[0], objs[1]), (objs[1], objs[2])]):
            plain = put(f"{label}-m{i}.json",
                        dumps_morphism(random_morphism(src, dst, rng)))
            null = put(f"{label}-n{i}.json",
                       dumps_morphism(random_null_homotopic(src, dst, rng)[0]))
            commands += [cmd + [m] for m in (plain, null)
                         for cmd in MORPHISM_COMMANDS]
        for s in range(ctx.t + 1):
            name = put(f"{label}-r{s}.json", dumps_object(rank_one(ctx, s)))
            commands += [["ar-seq", name], ["ar-verify", name], ["tau", name]]
        # the identity of pi^1 is not null-homotopic
        ident = put(f"{label}-id.json",
                    dumps_morphism(identity_morphism(rank_one(ctx, 1))))
        commands += [cmd + [ident] for cmd in MORPHISM_COMMANDS]
    commands.append(["validate", put("bad.json", '{"ring": {"kind": "int-local", '
                                                 '"p": 4}, "t": 2, "matrix": [["2"]]}')])
    commands += [["check", "--suite", name, "--iters", "3", "--max-size", "2",
                  "--max-t", "2"] for name in SUITES]
    commands.append(["faithful", "--max-t", "2"])
    return commands


def output_digest(tmp_path) -> tuple[str, int]:
    """sha256 of every command line, exit code and stdout, in order."""
    commands = write_files(tmp_path)
    digest = hashlib.sha256()
    for argv in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([a if not a.endswith(".json") else str(tmp_path / a)
                         for a in argv])
        digest.update(f"{' '.join(argv)}\n{code}\n{out.getvalue()}".encode())
    return digest.hexdigest(), len(commands)


def test_mon_output_matches_golden_digest(tmp_path):
    digest, count = output_digest(tmp_path)
    assert count > 400
    assert digest == GOLDEN
