"""Property-suite runner basics: registry, determinism, summaries."""

from __future__ import annotations

from monocat.checks import SUITES, SuiteResult, _tally, run_suite
from monocat.cli import main
from monocat.errors import NotMono


def test_registry_names():
    assert list(SUITES) == ["sigma", "tr1", "nullity", "tr2", "tr3", "tr4",
                            "inv", "factor", "periodic", "tau"]


def test_summary_formatting():
    assert SuiteResult("TR1", 200, 200).summary() == "TR1 200/200 PASS"
    short = SuiteResult("TR1", 199, 200)
    assert not short.ok
    assert short.summary() == "TR1 199/200 FAIL"


def test_suites_are_deterministic():
    a = run_suite("sigma", seed=5, iters=10, max_size=2, max_t=2)
    b = run_suite("sigma", seed=5, iters=10, max_size=2, max_t=2)
    assert a == b


def test_tau_suite_counts_combinations():
    res = run_suite("tau", max_t=4)
    assert res.total == 12 and res.ok


def test_small_runs_all_pass():
    for name in SUITES:
        res = run_suite(name, seed=3, iters=4, max_size=2, max_t=2)
        assert res.ok, res.summary()


def test_tally_records_the_first_failure():
    def raising(i):
        if i in (2, 4):
            raise NotMono(f"trial {i} broke")
        return True

    res = _tally("X", 6, raising)
    assert (res.passed, res.total) == (4, 6)
    assert res.first_failure == (2, "NotMono: trial 2 broke")
    assert res.summary() == "X 4/6 FAIL"
    res = _tally("Y", 3, lambda i: i != 1)
    assert res.first_failure == (1, "law false")
    assert _tally("Z", 3, lambda i: True).first_failure is None


def test_check_reports_the_first_failure_on_stderr(monkeypatch, capsys):
    def trial(i):
        if i:
            raise NotMono("bad")
        return True

    monkeypatch.setitem(SUITES, "tau", lambda **kw: _tally("TAU", 3, trial))
    assert main(["check", "--suite", "tau"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "TAU 1/3 FAIL\n"
    assert captured.err == "TAU first failure: trial 1: NotMono: bad\n"
