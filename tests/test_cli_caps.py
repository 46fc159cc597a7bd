"""`mon check --iters` is capped at MAX_ITERS: a larger count exits 2 at
once, before any suite runs, as --max-size and --max-t do."""

import time

import pytest

from monocat.cli import MAX_ITERS, main


@pytest.mark.parametrize("iters", [MAX_ITERS + 1, 100_000_000])
def test_check_refuses_iters_above_the_cap_at_once(capsys, iters):
    t0 = time.perf_counter()
    code = main(["check", "--suite", "sigma", "--iters", str(iters)])
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --iters must be at most 10000\n"
    assert MAX_ITERS == 10_000
