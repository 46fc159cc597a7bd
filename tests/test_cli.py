"""Command line behavior: formats, exit codes, determinism."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from monocat import almost_split, stable
from monocat.cli import (COMMANDS, MAX_SIZE, MAX_T, build_parser, dumps_object,
                         load_object_file, main)
from monocat.rings import MAX_INT_DIGITS, MAX_X_DEGREE

CANON = ('{"ring": {"kind": "int-local", "p": 2}, "t": 2, '
         '"matrix": [["2","1"],["0","-2"]]}')


def put(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def rank_one_file(tmp_path, name="f.json"):
    return put(tmp_path, name,
               '{"ring": {"kind": "int-local", "p": 2}, "t": 2, '
               '"matrix": [["2"]]}')


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_roundtrip_on_canonical_bytes(tmp_path):
    path = put(tmp_path, "canon.json", CANON)
    assert dumps_object(load_object_file(path)) == CANON


def test_sigma_emits_partner(tmp_path, capsys):
    path = rank_one_file(tmp_path)
    code, out, _ = run(capsys, "sigma", path)
    assert code == 0
    assert out == ('{"ring": {"kind": "int-local", "p": 2}, "t": 2, '
                   '"matrix": [["2"]]}\n')


def test_sigma_is_involutive_through_files(tmp_path, capsys):
    path = put(tmp_path, "canon.json", CANON)
    once = str(tmp_path / "once.json")
    twice = str(tmp_path / "twice.json")
    assert main(["sigma", path, "-o", once]) == 0
    assert main(["sigma", once, "-o", twice]) == 0
    capsys.readouterr()
    assert (tmp_path / "twice.json").read_text() == CANON + "\n"


def test_stable_hom_line(tmp_path, capsys):
    path = rank_one_file(tmp_path)
    code, out, _ = run(capsys, "stable-hom", path, path)
    assert code == 0
    assert out == "lengths: [1]\n"


def test_check_summary_line(tmp_path, capsys):
    code, out, _ = run(capsys, "check", "--suite", "tr1", "--seed", "7",
                       "--iters", "25", "--max-size", "2", "--max-t", "2")
    assert code == 0
    assert out == "TR1 25/25 PASS\n"


def test_check_is_deterministic(capsys):
    argv = ["check", "--suite", "nullity", "--seed", "11", "--iters", "10",
            "--max-size", "2", "--max-t", "2"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_validate_and_decompose(tmp_path, capsys):
    path = rank_one_file(tmp_path)
    code, out, _ = run(capsys, "validate", path)
    assert code == 0 and out == "OK n=1 svals=[1]\n"
    code, out, _ = run(capsys, "decompose", path)
    assert code == 0 and out == "svals: [1]\n"
    code, out, _ = run(capsys, "coker", path)
    assert code == 0 and out == "exps: [1]\n"


def test_exit_codes_three_ways(tmp_path, capsys):
    broken = put(tmp_path, "broken.json", "{nope")
    code, _, err = run(capsys, "validate", broken)
    assert code == 2 and err.startswith("error:")

    singular = put(tmp_path, "singular.json",
                   '{"ring": {"kind": "int-local", "p": 2}, "t": 2, '
                   '"matrix": [["0"]]}')
    code, _, err = run(capsys, "validate", singular)
    assert code == 1 and err.startswith("violation: NotMono")

    outside = put(tmp_path, "outside.json",
                  '{"ring": {"kind": "int-local", "p": 2}, "t": 2, '
                  '"matrix": [["1/2"]]}')
    code, _, err = run(capsys, "validate", outside)
    assert code == 2

    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_nullhomotopic_with_witness(tmp_path, capsys):
    fpath = rank_one_file(tmp_path)
    mpath = put(tmp_path, "m.json", json.dumps({
        "source": "f.json", "target": "f.json",
        "psi1": [["2"]], "psi0": [["2"]]}))
    code, out, _ = run(capsys, "nullhomotopic", mpath)
    assert code == 0
    assert out == 'nullhomotopic: true\ns0: [["0"]]\ns1: [["1"]]\n'
    ident = put(tmp_path, "id.json", json.dumps({
        "source": "f.json", "target": "f.json",
        "psi1": [["1"]], "psi0": [["1"]]}))
    code, out, _ = run(capsys, "nullhomotopic", ident)
    assert code == 1
    assert out == "nullhomotopic: false\n"
    assert fpath  # referenced relative to the morphism file


def test_cone_and_projectivity(tmp_path, capsys):
    rank_one_file(tmp_path)
    mpath = put(tmp_path, "m.json", json.dumps({
        "source": "f.json", "target": "f.json",
        "psi1": [["2"]], "psi0": [["2"]]}))
    code, out, _ = run(capsys, "cone", mpath)
    assert code == 0
    assert '"matrix": [["2","2"],["0","-2"]]' in out
    conefile = put(tmp_path, "cone.json", out.strip())
    code, out, _ = run(capsys, "is-projective", conefile)
    assert code == 1 and out == "projective: false\n"


def test_iso_test_exit_codes(tmp_path, capsys):
    rank_one_file(tmp_path)
    ident = put(tmp_path, "id.json", json.dumps({
        "source": "f.json", "target": "f.json",
        "psi1": [["1"]], "psi0": [["1"]]}))
    code, out, _ = run(capsys, "iso-test", ident)
    assert code == 0 and out == "iso: true\n"
    null = put(tmp_path, "null.json", json.dumps({
        "source": "f.json", "target": "f.json",
        "psi1": [["2"]], "psi0": [["2"]]}))
    code, out, _ = run(capsys, "iso-test", null)
    assert code == 1 and out == "iso: false\n"


def test_triangle_rotate_emit_json(tmp_path, capsys):
    rank_one_file(tmp_path)
    mpath = put(tmp_path, "m.json", json.dumps({
        "source": "f.json", "target": "f.json",
        "psi1": [["2"]], "psi0": [["2"]]}))
    code, out, _ = run(capsys, "triangle", mpath)
    assert code == 0
    tri = json.loads(out)
    assert sorted(tri) == ["a", "b", "c", "u", "v", "w"]
    code, out2, _ = run(capsys, "rotate", mpath)
    assert code == 0
    rot = json.loads(out2)
    assert sorted(rot) == ["comparison", "rotated"]
    # determinism across runs
    code, out3, _ = run(capsys, "triangle", mpath)
    assert out3 == out


def test_resolve_lines(tmp_path, capsys):
    path = rank_one_file(tmp_path)
    code, out, _ = run(capsys, "resolve", path)
    assert code == 0
    assert out == 'd0: [["2"]]\nd1: [["2"]]\n'


def test_tau_commands(tmp_path, capsys):
    path = put(tmp_path, "g.json",
               '{"ring": {"kind": "int-local", "p": 2}, "t": 3, '
               '"matrix": [["2"]]}')
    code, out, _ = run(capsys, "tau", path)
    assert code == 0 and '"matrix": [["2"]]' in out
    code, out, _ = run(capsys, "tau", path, "--dim", "1")
    assert code == 0 and '"matrix": [["4"]]' in out
    code, out, _ = run(capsys, "tau-gp", path, "--dim", "1")
    assert code == 0 and out == "exps: [2]\n"
    proj = put(tmp_path, "proj.json",
               '{"ring": {"kind": "int-local", "p": 2}, "t": 2, '
               '"matrix": [["4"]]}')
    code, _, err = run(capsys, "tau", proj)
    assert code == 1 and "ProjectiveObject" in err


def test_ar_commands(tmp_path, capsys):
    path = rank_one_file(tmp_path)
    code, out, _ = run(capsys, "ar-seq", path)
    assert code == 0
    seq = json.loads(out)
    assert sorted(seq) == ["end", "g", "middle", "tau_f", "theta"]
    assert seq["middle"]["matrix"] == [["2", "1"], ["0", "2"]]
    code, out, _ = run(capsys, "ar-verify", path)
    assert code == 0
    assert out.splitlines()[-1] == "ARSS 1 2 PASS"


def test_ar_verify_at_depth_twelve(tmp_path, capsys):
    # 13 test objects of 2^12 classes each
    path = put(tmp_path, "deep.json",
               '{"ring": {"kind": "int-local", "p": 2}, "t": 12, '
               '"matrix": [["64"]]}')
    code, out, _ = run(capsys, "ar-verify", path)
    assert code == 0
    assert out == (
        "TEST s'=0 classes=4096 factored=4096 PASS\n"
        "TEST s'=1 classes=4096 factored=4096 PASS\n"
        "TEST s'=2 classes=4096 factored=4096 PASS\n"
        "TEST s'=3 classes=4096 factored=4096 PASS\n"
        "TEST s'=4 classes=4096 factored=4096 PASS\n"
        "TEST s'=5 classes=4096 factored=4096 PASS\n"
        "TEST s'=6 classes=4096 factored=2048 PASS\n"
        "TEST s'=7 classes=4096 factored=4096 PASS\n"
        "TEST s'=8 classes=4096 factored=4096 PASS\n"
        "TEST s'=9 classes=4096 factored=4096 PASS\n"
        "TEST s'=10 classes=4096 factored=4096 PASS\n"
        "TEST s'=11 classes=4096 factored=4096 PASS\n"
        "TEST s'=12 classes=4096 factored=4096 PASS\n"
        "ARSS 6 12 PASS\n")


def test_internal_invariant_failure_exits_three(tmp_path, capsys, monkeypatch):
    # a broken postcondition is the library's fault, not the input's
    monkeypatch.setattr(almost_split, "_exactness_failure",
                        lambda *args: "broken")
    code, out, err = run(capsys, "ar-seq", rank_one_file(tmp_path))
    assert (code, out) == (3, "")
    assert err == "internal error: almost split sequence is not exact\n"


def test_split_postcondition_failure_exits_three(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(almost_split, "_splits", lambda h, generators: True)
    code, out, err = run(capsys, "ar-seq", rank_one_file(tmp_path))
    assert (code, out) == (3, "")
    assert err == "internal error: almost split sequence splits\n"


@pytest.mark.parametrize("command", ["tau", "tau-gp"])
@pytest.mark.parametrize("dim", ["-1", "-3"])
def test_negative_dim_is_refused(tmp_path, capsys, command, dim):
    # d is the Krull dimension of the singularity: never negative
    path = rank_one_file(tmp_path)
    assert run(capsys, command, path, "--dim", dim) == (
        2, "", "error: --dim must be at least 0\n")
    assert run(capsys, command, path, "--dim", "0")[0] == 0


def test_faithful_report(capsys):
    code, out, _ = run(capsys, "faithful", "--max-t", "2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 9
    assert "PAIR s=1 s'=1 mon=[1] oracle=[1] PASS" in lines


def test_output_flag_writes_file(tmp_path, capsys):
    path = rank_one_file(tmp_path)
    target = tmp_path / "out.json"
    code = main(["suspend", path, "-o", str(target)])
    capsys.readouterr()
    assert code == 0
    assert target.read_text() == ('{"ring": {"kind": "int-local", "p": 2}, '
                                  '"t": 2, "matrix": [["-2"]]}\n')


def test_morphism_inline_objects(tmp_path, capsys):
    inline = {"ring": {"kind": "int-local", "p": 2}, "t": 2,
              "matrix": [["2"]]}
    mpath = put(tmp_path, "inline.json", json.dumps({
        "source": inline, "target": inline,
        "psi1": [["0"]], "psi0": [["0"]]}))
    code, out, _ = run(capsys, "nullhomotopic", mpath)
    assert code == 0
    assert out.splitlines()[0] == "nullhomotopic: true"


RANK_ONE = {"ring": {"kind": "int-local", "p": 2}, "t": 2, "matrix": [["2"]]}


@pytest.mark.parametrize("payload, message", [
    ({"ring": {"kind": "int-local", "p": 2}, "matrix": [["2"]]},
     "missing field 't'"),
    ({"ring": {"kind": "int-local"}, "t": 2, "matrix": [["2"]]},
     "missing field 'p'"),
    ({"ring": {"kind": "int-local", "p": 2}, "t": 2}, "missing field 'matrix'"),
    ({"t": 2, "matrix": [["2"]]}, "missing field 'ring'"),
    ({"ring": "int-local", "t": 2, "matrix": [["2"]]}, "ring must be a JSON object"),
    ({"ring": ["int-local", 2], "t": 2, "matrix": [["2"]]},
     "ring must be a JSON object"),
], ids=["t", "p", "matrix", "ring", "ring-string", "ring-list"])
def test_loader_names_the_bad_field(tmp_path, capsys, payload, message):
    code, out, err = run(capsys, "validate", put(tmp_path, "f.json", json.dumps(payload)))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_morphism_loader_names_the_missing_field(tmp_path, capsys):
    path = put(tmp_path, "m.json", json.dumps(
        {"source": RANK_ONE, "target": RANK_ONE, "psi1": [["0"]]}))
    code, out, err = run(capsys, "nullhomotopic", path)
    assert (code, out, err) == (2, "", "error: missing field 'psi0'\n")


def test_poly_ring_files(tmp_path, capsys):
    path = put(tmp_path, "p.json",
               '{"ring": {"kind": "poly-local", "q": 2}, "t": 2, '
               '"matrix": [["x"]]}')
    code, out, _ = run(capsys, "validate", path)
    assert code == 0 and out == "OK n=1 svals=[1]\n"
    code, out, _ = run(capsys, "sigma", path)
    assert code == 0
    assert out == ('{"ring": {"kind": "poly-local", "q": 2}, "t": 2, '
                   '"matrix": [["x"]]}\n')
    rational = put(tmp_path, "q.json",
                   '{"ring": {"kind": "poly-local"}, "t": 2, '
                   '"matrix": [["x"]]}')
    code, out, _ = run(capsys, "validate", rational)
    assert code == 0


def test_stable_hom_ring_mismatch(tmp_path, capsys):
    a = rank_one_file(tmp_path)
    b = put(tmp_path, "p.json",
            '{"ring": {"kind": "poly-local", "q": 2}, "t": 2, '
            '"matrix": [["x"]]}')
    code, _, err = run(capsys, "stable-hom", a, b)
    assert code == 2 and "different rings" in err


def test_morphism_ring_mismatch(tmp_path, capsys):
    # the same refusal as stable-hom's, for every morphism command
    path = put(tmp_path, "mixed.json", json.dumps({
        "source": RANK_ONE,
        "target": {"ring": {"kind": "int-local", "p": 3}, "t": 2,
                   "matrix": [["3"]]},
        "psi1": [["0"]], "psi0": [["0"]]}))
    for command in ("cone", "nullhomotopic", "iso-test"):
        code, out, err = run(capsys, command, path)
        assert (code, out) == (2, "")
        assert err == "error: source and target live over different rings\n"


def nested_scalar_file(tmp_path, depth):
    return put(tmp_path, f"nested{depth}.json", json.dumps(
        {"ring": {"kind": "int-local", "p": 2}, "t": 2,
         "matrix": [["(" * depth + "2" + ")" * depth]]}))


def test_deep_nesting_is_malformed_input(tmp_path, capsys):
    deep_json = put(tmp_path, "deep.json", "[" * 100000 + "]" * 100000)
    for path in (deep_json, nested_scalar_file(tmp_path, 5000)):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "validate", path)
        assert time.perf_counter() - t0 < 1.0
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "too deeply" in err
    code, out, _ = run(capsys, "validate", nested_scalar_file(tmp_path, 300))
    assert code == 0 and out.startswith("OK n=1")


def test_validate_with_an_eighteen_digit_prime(tmp_path, capsys):
    p = 10 ** 18 + 3
    path = put(tmp_path, "big.json",
               f'{{"ring": {{"kind": "int-local", "p": {p}}}, "t": 2, '
               f'"matrix": [["{p}","1"],["0","{p}"]]}}')
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "validate", path)
    assert time.perf_counter() - t0 < 1.0
    assert code == 0 and out.startswith("OK n=2")
    too_big = put(tmp_path, "huge.json",
                  '{"ring": {"kind": "int-local", "p": 3317044064679887385961981}, '
                  '"t": 1, "matrix": [["1"]]}')
    code, _, err = run(capsys, "validate", too_big)
    assert code == 2 and "too large" in err


def test_validate_caps_the_exponent_of_x(tmp_path, capsys):
    def shear(k):
        return put(tmp_path, f"x{k}.json",
                   '{"ring": {"kind": "poly-local", "q": 2}, "t": 2, '
                   f'"matrix": [["1","x^{k}"],["0","1"]]}}')
    code, out, _ = run(capsys, "validate", shear(MAX_X_DEGREE))
    assert code == 0 and out.startswith("OK n=2")
    code, _, err = run(capsys, "validate", shear(MAX_X_DEGREE + 1))
    assert code == 2 and f"at most {MAX_X_DEGREE}" in err


def test_validate_caps_the_digits_of_an_integer(tmp_path, capsys):
    def unit(digits):
        return put(tmp_path, f"d{digits}.json",
                   '{"ring": {"kind": "int-local", "p": 2}, "t": 2, '
                   f'"matrix": [["{"1" * digits}"]]}}')
    code, out, _ = run(capsys, "validate", unit(MAX_INT_DIGITS))
    assert code == 0 and out.startswith("OK n=1")
    code, _, err = run(capsys, "validate", unit(MAX_INT_DIGITS + 1))
    assert code == 2 and f"more than {MAX_INT_DIGITS} digits" in err
    assert "set_int_max_str_digits" not in err


def test_check_refuses_an_oversized_enumeration(capsys):
    # the second trial draws Z_(3) with t = 3 and a 4 x 4 object: 27^4 vectors
    t0 = time.perf_counter()
    code, out, err = run(capsys, "check", "--suite", "periodic",
                         "--max-size", "4", "--max-t", "3", "--seed", "2",
                         "--iters", "2")
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and out == ""
    assert err.startswith("violation: ParametersTooLarge")


@pytest.mark.parametrize("option, value", [("--iters", "-1"),
                                           ("--max-size", "0"),
                                           ("--max-t", "0")])
def test_check_refuses_out_of_range_bounds(capsys, option, value):
    # malformed input: exit 2 before any suite runs, not a FAIL line
    code, out, err = run(capsys, "check", "--suite", "sigma", option, value)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {option} must be at least")


Q_AT_4096 = ('{"ring": {"kind": "poly-local"}, "t": 4096, '
             '"matrix": [["1 + x","2"],["3","x"]]}')
Z2_AT_1E8 = ('{"ring": {"kind": "int-local", "p": 2}, "t": 100000000, '
             '"matrix": [["2"]]}')
Z3_AT_1E8 = ('{"ring": {"kind": "int-local", "p": 3}, "t": 100000000, '
             '"matrix": [["3"]]}')


@pytest.mark.parametrize("text, argv", [
    (Q_AT_4096, ["validate"]), (Q_AT_4096, ["sigma"]),
    (Z2_AT_1E8, ["sigma"]), (Z3_AT_1E8, ["tau"]), (Z3_AT_1E8, ["coker"]),
    (Z3_AT_1E8, ["ar-verify"]),
    (None, ["check", "--suite", "sigma", "--iters", "3",
            "--max-t", "100000000"]),
    (None, ["faithful", "--p", "3", "--max-t", "100000000"]),
    (None, ["check", "--suite", "sigma", "--iters", "2",
            "--max-size", "100000", "--max-t", "2"])])
def test_oversized_inputs_are_refused_at_once(tmp_path, capsys, text, argv):
    # unbounded, each runs past 20 s or runs out of memory
    if text is not None:
        argv = [argv[0], put(tmp_path, "big.json", text)]
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error:")


def test_bounds_accept_their_largest_values(tmp_path, capsys):
    path = put(tmp_path, "f.json", '{"ring": {"kind": "int-local", "p": 2}, '
               f'"t": {MAX_T}, "matrix": [["2"]]}}')
    assert run(capsys, "validate", path) == (0, "OK n=1 svals=[1]\n", "")
    code, _, err = run(capsys, "check", "--suite", "sigma", "--iters", "1",
                       "--max-size", str(MAX_SIZE), "--max-t", str(MAX_T))
    assert code == 0 and err == ""


def test_output_caps_the_digits_of_an_integer(tmp_path, capsys):
    # valid, but the partner's entry 8/N^2 has a 4,400-digit denominator
    big = "1" * 2200
    path = put(tmp_path, "big.json",
               '{"ring": {"kind": "int-local", "p": 2}, "t": 3, '
               f'"matrix": [["{big}","1"],["0","{big}"]]}}')
    code, out, _ = run(capsys, "validate", path)
    assert code == 0 and out == "OK n=2 svals=[0,0]\n"
    for command in ("sigma", "suspend"):
        t0 = time.perf_counter()
        code, out, err = run(capsys, command, path)
        assert time.perf_counter() - t0 < 1.0
        assert code == 1 and out == ""
        assert err.startswith("violation: ParametersTooLarge")
        assert f"MAX_INT_DIGITS = {MAX_INT_DIGITS}" in err
        assert "set_int_max_str_digits" not in err
    # a failing command creates no -o file
    target = tmp_path / "partner.json"
    code, out, _ = run(capsys, "sigma", path, "-o", str(target))
    assert code == 1 and out == "" and not target.exists()
    # residues modulo 1000000007^512 reach 4,608 digits: d0 formats, d1
    # does not, and stdout stays empty
    path = put(tmp_path, "long_t.json",
               '{"ring": {"kind": "int-local", "p": 1000000007}, "t": 512, '
               '"matrix": [["3","0"],["0","1000000007"]]}')
    code, out, err = run(capsys, "resolve", path)
    assert code == 1 and out == ""
    assert err.startswith("violation: ParametersTooLarge")


def test_output_into_a_missing_directory_is_an_error(tmp_path, capsys):
    path = rank_one_file(tmp_path)
    code, out, err = run(capsys, "sigma", path, "-o",
                         str(tmp_path / "nowhere" / "out.json"))
    assert code == 2 and out == "" and err.startswith("error:")


def test_faithful_refuses_max_t_below_two(capsys):
    # no t below 2 has a pair to compare, so an empty report is refused
    for value in ("1", "-5"):
        assert run(capsys, "faithful", "--max-t", value) == (
            2, "", "error: --max-t must be at least 2\n")


def test_faithful_refuses_an_oversized_enumeration(capsys):
    # t = 2 passes (101^2 maps); t = 3 would enumerate 101^3 per cell
    t0 = time.perf_counter()
    code, out, err = run(capsys, "faithful", "--p", "101", "--max-t", "3")
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and out == ""
    assert err.startswith("violation: ParametersTooLarge")


def test_faithful_refuses_before_enumerating_any_pair(capsys, monkeypatch):
    # the largest t is checked first, so no smaller t is enumerated in vain
    calls = []
    monkeypatch.setattr(stable, "stable_hom_R_bruteforce",
                        lambda m, n: calls.append((m, n)))
    code, out, err = run(capsys, "faithful", "--p", "101", "--max-t", "3")
    assert (code, out, calls) == (1, "", [])
    assert err == ("violation: ParametersTooLarge: "
                   "too many maps to enumerate into R^k\n")


def test_validate_a_twenty_by_twenty_rational_file(tmp_path, capsys):
    # x*I + C @ D with C (20 x 12), D (12 x 20) random integers; D @ C is
    # invertible for this seed, so C @ D is similar to diag(D @ C, 0) and
    # the Smith exponents are twelve 0s and eight 1s
    n, r = 20, 12
    rng = random.Random(11)
    c = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(n)]
    d = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(r)]
    rows = [[str(sum(c[i][k] * d[k][j] for k in range(r)))
             + (" + x" if i == j else "") for j in range(n)] for i in range(n)]
    path = put(tmp_path, "q20.json", json.dumps(
        {"ring": {"kind": "poly-local"}, "t": 1, "matrix": rows}))
    code, out, _ = run(capsys, "validate", path)
    assert code == 0
    assert out == f"OK n=20 svals=[{','.join(['0'] * 12 + ['1'] * 8)}]\n"


@pytest.mark.parametrize("scalar", ["\u00b2", "x^\u00b2", "3\u00b2", "\u0663"])
def test_validate_reads_ascii_digits_only(tmp_path, capsys, scalar):
    # "²" passes str.isdigit but not a digit pattern; "٣" (Arabic-Indic 3)
    # is refused too, so a scalar's digits are always 0-9
    path = put(tmp_path, "f.json", json.dumps(
        {"ring": {"kind": "int-local", "p": 2}, "t": 2,
         "matrix": [[scalar]]}))
    code, out, err = run(capsys, "validate", path)
    assert (code, out) == (2, "")
    assert err.startswith("error: bad character in scalar")


# -- one parser per process ----------------------------------------------------

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _help_texts(parser):
    subparsers = parser._subparsers._group_actions[0].choices
    return [parser.format_help(), parser.format_usage()] + [
        p.format_help() for p in subparsers.values()]


def test_parser_is_built_once_per_process():
    assert build_parser() is build_parser()
    # a fresh process builds nothing on import, and one parser for all calls
    code = ("import contextlib, io\n"
            "from monocat import cli\n"
            "print(cli.build_parser.cache_info().misses)\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    cli.main(['--help']); cli.main(['check', '--iters', '0'])\n"
            "info = cli.build_parser.cache_info()\n"
            "print(info.misses, info.hits)\n")
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout, out.stderr) == (0, "0\n1 1\n", "")


def test_shared_parser_survives_every_command(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    obj = rank_one_file(tmp_path)
    files = {"object": obj, "source": obj, "target": obj,
             "morphism": put(tmp_path, "m.json", json.dumps({
                 "source": "f.json", "target": "f.json",
                 "psi1": [["2"]], "psi0": [["2"]]}))}
    options = {"check": ["--suite", "sigma", "--iters", "1"],
               "faithful": ["--max-t", "2"]}
    for name, positionals, *_ in COMMANDS:
        argv = [name, *(files[arg] for arg in positionals),
                *options.get(name, [])]
        code, _, err = run(capsys, *argv)
        assert code in (0, 1) and not err.startswith("error"), argv
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "sigma", obj, "--bogus")[0] == 2
    assert _help_texts(build_parser()) == _help_texts(
        build_parser.__wrapped__())


def test_option_values_do_not_reach_the_next_call(tmp_path, capsys):
    path = put(tmp_path, "g.json",
               '{"ring": {"kind": "int-local", "p": 2}, "t": 3, '
               '"matrix": [["2"]]}')
    target = tmp_path / "tau.json"
    assert run(capsys, "tau", path, "--dim", "3", "-o", str(target)) == (
        0, "", "")
    assert target.read_text() == ('{"ring": {"kind": "int-local", "p": 2}, '
                                  '"t": 3, "matrix": [["4"]]}\n')
    target.unlink()
    assert run(capsys, "tau", path) == (
        0, '{"ring": {"kind": "int-local", "p": 2}, "t": 3, '
           '"matrix": [["2"]]}\n', "")
    assert not target.exists()
    assert run(capsys, "check", "--suite", "tr1", "--iters", "1") == (
        0, "TR1 1/1 PASS\n", "")
    code, out, err = run(capsys, "check", "--iters", "0")
    assert (code, err) == (0, "")
    assert out == ("SIGMA 0/0 PASS\nTR1 0/0 PASS\nNULLITY 0/0 PASS\n"
                   "TR2 0/0 PASS\nTR3 0/0 PASS\nTR4 0/0 PASS\nINV 0/0 PASS\n"
                   "FACTOR 0/0 PASS\nPERIODIC 0/0 PASS\nTAU 6/6 PASS\n")


@pytest.mark.parametrize("argv", [["--help"], ["sigma", "--bogus"]])
def test_one_shot_mon_matches_in_process_main(capsys, monkeypatch, argv):
    env = dict(os.environ, PYTHONPATH=SRC, COLUMNS="80")
    proc = subprocess.run([sys.executable, "-m", "monocat.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    monkeypatch.setenv("COLUMNS", "80")
    build_parser()
    assert run(capsys, *argv) == (proc.returncode, proc.stdout, proc.stderr)
