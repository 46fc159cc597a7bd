"""Long-regime digest of ``mon`` output.

``sigma``, ``cone``, ``triangle`` and ``nullhomotopic`` run in process on
the dense fixtures of ``tests/long_regime/`` (t = 256 over F_2, F_3 and Q,
written by ``make_long_regime.py``): entries of hundreds of coefficients,
which only long inputs bring to the polynomial kernels.  Two morphisms are
null-homotopic and two are not.  The sha256 of every command line, exit
code and stdout must equal ``LONG_GOLDEN``, which was recorded before any
long-regime kernel changed; a change that means to keep the output never
records a new one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from pathlib import Path

from monocat.cli import main

LONG_GOLDEN = "e1455358258805238b71b69abf595d1ebaaf683fdd8a0bd2087dac55324ab1d1"
FIXTURES = Path(__file__).resolve().parent / "long_regime"
COMMANDS = [["sigma", "f2-cone.json"], ["sigma", "f3-cone.json"],
            ["cone", "f2-map.json"], ["triangle", "f2-map.json"],
            ["nullhomotopic", "f2-map.json"],
            ["nullhomotopic", "f3-null.json"], ["triangle", "f3-null.json"],
            ["cone", "q-map.json"], ["nullhomotopic", "q-map.json"],
            ["nullhomotopic", "q-null.json"]]


def long_regime_digest() -> tuple[str, list]:
    """sha256 of every command line, exit code and stdout, in order, and
    the exit codes."""
    digest, codes = hashlib.sha256(), []
    for command, name in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([command, str(FIXTURES / name)])
        codes.append(code)
        digest.update(f"{command} {name}\n{code}\n{out.getvalue()}".encode())
    return digest.hexdigest(), codes


def test_mon_output_on_long_dense_polynomials_matches_its_digest():
    digest, codes = long_regime_digest()
    assert codes == [0, 0, 0, 0, 1, 0, 0, 0, 1, 0]
    assert digest == LONG_GOLDEN
