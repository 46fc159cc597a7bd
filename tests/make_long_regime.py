"""Write the long-regime fixtures that ``test_long_regime.py`` reads.

Dense polynomial objects and morphisms at t = 256 over F_2, F_3 and Q,
each taken from a construction: a cone of a morphism between rank-one
objects (one of them a partner), and morphisms built from free scalars,
whose draws over k[x]_(x) are polynomials of t random coefficients.  So
the entries run to hundreds of coefficients, with denominators, and every
command on them runs the long-polynomial kernels (products, gcds, exact
quotients) under the Smith form, its transforms and the partner.  The
draws are seeded by the file name, so a run writes the same files.

    PYTHONPATH=src python3 tests/make_long_regime.py

The files are committed; the test pins the output of ``mon`` on them, so
a change that means to keep that output must not rewrite them.
"""

from __future__ import annotations

import random
from pathlib import Path

from monocat.category import MonObject
from monocat.cli import dumps_morphism, dumps_object
from monocat.homotopy import cone
from monocat.rings import RingCtx
from monocat.sampling import random_morphism, random_null_homotopic, random_object

OUT = Path(__file__).resolve().parent / "long_regime"
T = 256


def cone_object(ctx: RingCtx, rng: random.Random) -> MonObject:
    """The 2 x 2 cone of a dense morphism from a partner to a rank-one
    object."""
    src = random_object(ctx, rng, 1).partner()
    return cone(random_morphism(src, random_object(ctx, rng, 1), rng))


def fixtures() -> dict:
    """File name -> JSON text, in writing order."""
    out = {}
    for label, ctx in (("f2", RingCtx.poly_local(T, 2)), ("f3", RingCtx.poly_local(T, 3))):
        rng = random.Random(label)
        a, b = cone_object(ctx, rng), cone_object(ctx, rng)
        out[f"{label}-cone.json"] = dumps_object(a)
        if label == "f2":
            out["f2-map.json"] = dumps_morphism(random_morphism(a, b, rng))
        else:
            out["f3-null.json"] = dumps_morphism(random_null_homotopic(a, b, rng)[0])
    ctx, rng = RingCtx.poly_local(T), random.Random("q")
    a, b = random_object(ctx, rng, 1).partner(), random_object(ctx, rng, 1)
    out["q-map.json"] = dumps_morphism(random_morphism(a, b, rng))
    out["q-null.json"] = dumps_morphism(random_null_homotopic(a, b, rng)[0])
    return out


def main() -> None:
    OUT.mkdir(exist_ok=True)
    for name, text in fixtures().items():
        (OUT / name).write_text(text + "\n")


if __name__ == "__main__":
    main()
