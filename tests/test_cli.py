"""Command line behavior: formats, exit codes, determinism."""

from __future__ import annotations

import json
import time

from monocat.cli import dumps_object, load_object_file, main
from monocat.rings import MAX_X_DEGREE

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
