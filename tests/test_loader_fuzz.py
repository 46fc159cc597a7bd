"""The JSON loader fuzzed: every object or morphism file either runs, or
fails fast with a documented exit code.

Payloads are well formed (a ring, a t from -2 to ``MAX_T`` + 2 and square
matrices of up to 3 x 3 scalars of S, which load and then build or are
refused for their mathematics), or drawn in every shape the loader must
refuse: text that is not JSON, JSON that is not an object, missing fields,
fields of the wrong type, rings with bad primes, ragged or empty matrices
and random scalar strings, and morphisms whose objects are inline, a
missing path, or not an object at all.  Each file goes through
``cli.main`` in process: it must exit 0, 1 or 2 (never 3, an internal
error), with no exception escaping ``main``, within the example deadline.
"""

from __future__ import annotations

import contextlib
import io
import json
from datetime import timedelta

from hypothesis import HealthCheck, example, given, settings, strategies as st

from monocat.cli import MAX_T, main

WRONG = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False),
                  st.text(max_size=3), st.lists(st.integers(), max_size=2),
                  st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
SCALARS = st.one_of(
    st.sampled_from(["0", "1", "-2", "x", "1 + x", "x^2", "1/(1 + x)", "1/2",
                     "(1 - x)/(2 + x)", "3*x^3 - x", "x/x", "1/x"]),
    st.text(alphabet="0123456789x*^+-/() ", max_size=8))
CELLS = st.one_of(SCALARS, SCALARS, SCALARS, WRONG, st.integers(-3, 3))


def sometimes_wrong(strategy):
    """Mostly the strategy, sometimes a value of the wrong type."""
    return st.one_of(strategy, strategy, strategy, WRONG)


def matrices():
    """Square matrices up to 3 x 3, and ragged, empty or non-list ones."""
    square = st.integers(1, 3).flatmap(
        lambda n: st.lists(st.lists(CELLS, min_size=n, max_size=n),
                           min_size=n, max_size=n))
    ragged = st.lists(st.lists(CELLS, max_size=3), max_size=3)
    return st.one_of(square, square, square, ragged, WRONG)


RINGS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("int-local"),
                           "p": sometimes_wrong(st.sampled_from([2, 3, 5, 4, 1, 0, -2]))}),
    st.fixed_dictionaries({"kind": st.just("poly-local")},
                          optional={"q": sometimes_wrong(st.sampled_from([2, 3, 4, 0]))}),
    st.fixed_dictionaries({"kind": sometimes_wrong(st.sampled_from(["int", "poly"]))}),
    WRONG)
GOOD_RINGS = st.sampled_from([{"kind": "int-local", "p": 2}, {"kind": "int-local", "p": 3},
                              {"kind": "poly-local", "q": 2}, {"kind": "poly-local"}])
# scalars of S over both ring kinds, zero most often
GOOD_SCALARS = st.sampled_from(["0", "0", "0", "1", "2", "-3", "x", "1 + x", "x^2",
                                "1/(1 + x)", "(1 - x)/(2 + x)", "3*x^3 - x"])
T = sometimes_wrong(st.integers(-2, MAX_T + 2))


def good_matrix(n: int):
    return st.lists(st.lists(GOOD_SCALARS, min_size=n, max_size=n), min_size=n, max_size=n)


@st.composite
def well_formed(draw):
    """A ring, a t and two matrices of scalars of S, m x m and n x n, so
    that objects and morphisms over them load, build or are refused for
    their mathematics (exit 0 or 1), or for a t out of range."""
    ring, t = draw(GOOD_RINGS), draw(st.integers(-2, MAX_T + 2))
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    src = {"ring": ring, "t": t, "matrix": draw(good_matrix(m))}
    dst = {"ring": ring, "t": t, "matrix": draw(good_matrix(n))}
    zero = [["0"] * m for _ in range(n)]
    psi = draw(st.one_of(st.just(zero), st.lists(st.lists(GOOD_SCALARS, min_size=m,
                                                          max_size=m),
                                                 min_size=n, max_size=n)))
    return src, {"source": src, "target": dst, "psi1": psi, "psi0": psi}


def objects():
    """Object payloads: well formed, or with each field sometimes missing
    or wrong."""
    broken = st.fixed_dictionaries(
        {}, optional={"ring": RINGS, "t": T, "matrix": matrices()})
    return st.one_of(well_formed().map(lambda pair: pair[0]), broken)


def morphisms():
    """Morphism payloads: well formed, or over objects given inline or as a
    path, with each field sometimes missing or wrong."""
    ref = st.one_of(objects(), objects(), st.just("o.json"), st.just("missing.json"),
                    WRONG)
    broken = st.fixed_dictionaries(
        {}, optional={"source": ref, "target": ref, "psi1": matrices(),
                      "psi0": matrices()})
    return st.one_of(well_formed().map(lambda pair: pair[1]), broken)


def files(payloads):
    """The text of a file: the payload as JSON, or something that is not
    a JSON object."""
    return st.one_of(payloads.map(json.dumps), payloads.map(json.dumps),
                     payloads.map(json.dumps), WRONG.map(json.dumps),
                     st.sampled_from(["", "{", '{"t": 2,', "[1, 2", "nul"]))


# took 13 s to validate while the series inverse over Q grew its terms
SLOW_Q = json.dumps({"ring": {"kind": "poly-local"}, "t": 461, "matrix": [
    ["(1 - x)/(2 + x)", "1", "1 + x"], ["(1 - x)/(2 + x)", "(1 - x)/(2 + x)", "1"],
    ["0", "(1 - x)/(2 + x)", "1 + x"]]})


def mon(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


@settings(max_examples=150, deadline=timedelta(seconds=2),
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(files(objects()), st.sampled_from(["validate", "sigma", "decompose", "coker",
                                          "is-projective"]))
@example(text=SLOW_Q, command="validate")
def test_every_object_file_runs_or_fails_with_its_exit_code(tmp_path, text, command):
    path = tmp_path / "o.json"
    path.write_text(text)
    assert mon(command, str(path)) in (0, 1, 2)


@settings(max_examples=150, deadline=timedelta(seconds=2),
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(files(morphisms()), files(objects()),
       st.sampled_from(["nullhomotopic", "cone", "iso-test"]))
def test_every_morphism_file_runs_or_fails_with_its_exit_code(tmp_path, text, ref,
                                                              command):
    (tmp_path / "o.json").write_text(ref)
    path = tmp_path / "m.json"
    path.write_text(text)
    assert mon(command, str(path)) in (0, 1, 2)
