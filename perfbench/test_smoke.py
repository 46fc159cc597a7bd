"""Fast checks of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calib  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def M():
    return run.import_monocat()


@pytest.mark.parametrize("name", workloads.BUILDERS)
def test_first_trials_pass(M, name, tmp_path):
    tally = run.Tally(name, 0)
    plan = workloads.BUILDERS[name](M, 0, tmp_path / "work")
    try:
        first = plan.passes[0]
        for i, trial in enumerate(first[:3] + first[-2:]):
            tally.attempt(trial, i)
    finally:
        plan.close()
    assert tally.attempted == 5
    assert tally.failures == []


def test_every_reported_span_is_wrapped_and_removed(M, tmp_path):
    tracer = spans.Tracer(vars(M))
    tracer.install()
    try:
        installed = set(spans.installed_spans(vars(M)))
        for parts in spans.REPORTED.values():
            assert set(parts) <= installed
        # names imported into other modules are rebound as well
        assert M.category.snf is M.linalg.snf
        plan = workloads.build_tri_int(M, 0, tmp_path)
        plan.passes[0][-1].run()
    finally:
        tracer.uninstall()
    assert spans.installed_spans(vars(M)) == []
    assert tracer.stats["linalg.snf"][0] > 0
    assert tracer.counts["linalg.snf.cells"] > 0


def test_traced_run_leaves_no_wrappers():
    tally, metrics, _, _ = run.measure("cli", 0, 0.0, trace=True)
    assert not tally.failures
    assert metrics["cli.load.calls"][0] > 0
    assert metrics["trace_overhead_ratio"][0] > 0
    # the modules the traced run used are the ones left in sys.modules
    used = {m: sys.modules[f"monocat.{m}"] for m in spans.MODULES}
    assert spans.installed_spans(used) == []


def test_rounds_keep_the_best_latency_of_each_trial():
    tally = run.Tally("tri-int", 0)
    trials = [workloads.Trial("noop", "int-local", lambda: None)
              for _ in range(4)]
    rounds = []

    class HalfSpeed(calib.Calibration):
        def local_speed(self):
            return 0.5

    calibration = HalfSpeed()
    best, lat = run.timed_rounds(trials, tally, rounds.append, calibration)
    assert rounds == list(range(run.ROUNDS))
    assert tally.attempted == len(lat) == run.ROUNDS * len(trials)
    for i, b in enumerate(best):
        assert b == 0.5 * min(dt for _, dt in lat[i::len(trials)])
    assert len(calibration.samples) >= 1


def test_calibration_kernel_is_fixed():
    assert calib.kernel() == calib.kernel()
    calibration = calib.Calibration()
    calibration.sample()
    calibration.maybe_sample()  # too soon after the first: no new sample
    assert len(calibration.samples) == 1
    assert 0 < calibration.speed() < 100


def test_harrell_davis_percentiles():
    assert run.hd_quantile_ms([0.002] * 50, 50) == pytest.approx(2.0)
    ms = [k / 1000 for k in range(1, 101)]
    assert run.hd_quantile_ms(ms, 50) == pytest.approx(50.5, abs=0.5)
    assert run.hd_quantile_ms(ms, 90) == pytest.approx(90.9, abs=1.0)


def test_pass_count_follows_seconds():
    assert run.pass_count("enum", 0.0, trace=False) == 1
    assert run.pass_count("tri-int", 60.0, trace=False) > \
        run.pass_count("tri-int", 20.0, trace=False)
    assert run.pass_count("tri-int", 60.0, trace=True) == 1


def test_setup_sample_times_a_fresh_process():
    dt = run.setup_sample("cli", 0, 1.0)
    assert 0 < dt < 60
    assert not list((run.HERE / ".work").glob("cli-*"))


def test_refuses_to_run_without_sources(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "tri-int",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
