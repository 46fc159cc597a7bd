"""monocat benchmark: seeded workloads, law-checked trials, end-to-end and
per-layer metrics.

Run one workload from the repository root:

    python3 perfbench/run.py --workload tri-int --seed 1 --seconds 20 --trace 0

or every workload, one fresh process after another, with ``--workload all``.
See perfbench/README.md for the workloads and what each metric means.  The
last line of standard output is one JSON object; the lines before it are a
readable summary.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import calib  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = tuple(workloads.BUILDERS)
SETUP_SAMPLES = 3   # fresh-process set-ups per run; setup_s is their median
ROUNDS = 2          # timed repetitions of every trial; latency is their best
MIN_TRIALS = 100    # distinct trials, so that at least 10 lie beyond p90
HARD_STOP_S = 150   # no round starts after this much timed wall time
MAX_REPORTED_FAILURES = 10


class Tally:
    """Attempted trials and the record of each failure."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failures = []

    def attempt(self, trial, index) -> None:
        self.attempted += 1
        try:
            trial.run()
        except Exception as exc:  # any unexpected exception fails the trial
            self.failures.append({
                "workload": self.workload, "seed": self.seed, "trial": index,
                "kind": trial.kind, "ring": trial.ring,
                "exception": type(exc).__name__, "message": str(exc)[:300]})


def import_monocat() -> SimpleNamespace:
    """A fresh import of every monocat module from this checkout."""
    if not (SRC / "monocat" / "__init__.py").is_file():
        raise ImportError(f"no monocat sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "monocat" or m.startswith("monocat.")]:
        del sys.modules[name]
    mods = {m: importlib.import_module(f"monocat.{m}")
            for m in spans.MODULES + ("checks",)}
    origin = Path(mods["rings"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"monocat imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


def pass_count(workload: str, seconds: float, trace: bool) -> int:
    """Distinct passes a run builds: enough for ROUNDS rounds to take about
    the workload's share of ``seconds`` at the nominal pass time.  A traced
    run builds only the passes it traces."""
    if trace:
        return 1
    timed = seconds * workloads.TIME_SHARE[workload]
    return max(1, round(timed / (ROUNDS * workloads.PASS_SECONDS[workload])))


def set_up(workload: str, seed: int, seconds: float, trace: bool, tally: Tally):
    """Import, build the inputs from the seed and run one warm-up trial.
    Returns (modules, plan)."""
    M = import_monocat()
    workdir = HERE / ".work" / f"{workload}-{os.getpid()}"
    plan = workloads.BUILDERS[workload](
        M, seed, workdir, passes=pass_count(workload, seconds, trace),
        min_trials=0 if trace else MIN_TRIALS)
    tally.attempt(plan.passes[0][0], "warm-up")
    return M, plan


def setup_sample(workload: str, seed: int, seconds: float) -> float:
    """Seconds from starting a fresh process of this script to the moment
    it has done its set-up and would start its first timed trial.  Each
    sample pays the interpreter start, the first import of every module and
    the input generation, as the run's own set-up does."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--setup-only"],
        stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    dt = time.perf_counter() - t0
    proc.communicate()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up process exited {proc.returncode}")
    return dt


def run_trials(trials, tally: Tally, start_index: int):
    """Closed loop over a list: each trial starts when the previous returns.
    Returns per-trial (trial, seconds) and the wall time of the list."""
    lat = []
    clock = time.perf_counter
    begin = clock()
    for i, trial in enumerate(trials):
        t0 = clock()
        tally.attempt(trial, start_index + i)
        lat.append((trial, clock() - t0))
    return lat, clock() - begin


def timed_rounds(trials, tally: Tally, before_round, calibration):
    """ROUNDS closed-loop rounds over the whole trial list, so the repeats
    of one trial lie a round apart.  ``before_round(r)`` is called, and
    calibration samples are taken between trials, outside every trial's
    time.  Returns, per trial, the best (lowest) of its times scaled to the
    reference host speed, and every timed sample as measured."""
    best = [float("inf")] * len(trials)
    lat = []
    clock = time.perf_counter
    for r in range(ROUNDS):
        if sum(dt for _, dt in lat) >= HARD_STOP_S:
            break
        before_round(r)
        for i, trial in enumerate(trials):
            calibration.maybe_sample()
            speed = calibration.local_speed()
            t0 = clock()
            tally.attempt(trial, len(lat))
            dt = clock() - t0
            lat.append((trial, dt))
            best[i] = min(best[i], dt * speed)
    return best, lat


def quantile_ms(values, q: int) -> float:
    """The q-th percentile in ms; 0.0 without samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1e3
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


def hd_quantile_ms(values, q: int) -> float:
    """The Harrell-Davis estimate of the q-th percentile, in ms: a weighted
    mean of all order statistics, the i-th weighted by the mass of the
    Beta(q/100 (n+1), (1 - q/100)(n+1)) distribution on [(i-1)/n, i/n].
    Where the trial mix leaves a gap in the latencies around the
    percentile, the plain order statistic jumps across it from one seed to
    the next; this estimate moves smoothly."""
    x = sorted(values)
    n = len(x)
    if n < 2:
        return quantile_ms(values, q)
    a, b = q / 100 * (n + 1), (1 - q / 100) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    sub = 64                     # midpoint-rule steps per order statistic
    h = 1.0 / (n * sub)
    weights = []
    for i in range(n):
        mass = 0.0
        for k in range(sub):
            u = (i * sub + k + 0.5) * h
            mass += math.exp((a - 1) * math.log(u) + (b - 1) * math.log1p(-u)
                             - log_beta)
        weights.append(mass)
    return sum(w * v for w, v in zip(weights, x)) / sum(weights) * 1e3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


RING_GROUPS = {"int-local": ("int-local",),
               "poly-Fq": ("poly-F2", "poly-F3"),
               "poly-Q": ("poly-Q",)}


def ring_breakdown(lat) -> dict:
    """Untraced trial latency split by ring kind, and the nullity trials by
    ring for the baseline cross-check."""
    out = {}
    for group, labels in RING_GROUPS.items():
        vals = [dt for tr, dt in lat if tr.ring in labels]
        out[f"ring.{group}.trial_ms_p50"] = (quantile_ms(vals, 50), "ms")
    for label in ("int-local", "poly-F2", "poly-F3"):
        vals = [dt for tr, dt in lat if tr.ring == label and tr.kind == "nullity"]
        out[f"nullity.{label}.trial_ms_p50"] = (quantile_ms(vals, 50), "ms")
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """One run: the set-up, then the timed rounds or, traced, the first
    passes without and with the wrappers.  An untraced run also times
    SETUP_SAMPLES set-ups in fresh processes, one before each round, so
    that they meet the machine at different moments.  Returns (tally,
    metrics, latency samples, seconds from process start to the first
    timed trial)."""
    tally = Tally(workload, seed)
    plan = None
    try:
        M, plan = set_up(workload, seed, seconds, trace, tally)
        to_first_trial = time.perf_counter() - PROCESS_START
        if not trace:
            setups, scaled, calibration = [], [], calib.Calibration()

            def scaled_setup():
                # scaled by the host speed sampled right around it
                calibration.sample()
                dt = setup_sample(workload, seed, seconds)
                calibration.sample()
                setups.append(dt)
                return dt * calibration.local_speed()

            def before_round(r):
                while len(setups) < (r + 1) * SETUP_SAMPLES // ROUNDS:
                    scaled.append(scaled_setup())

            trials = [t for p in plan.passes for t in p]
            best, lat = timed_rounds(trials, tally, before_round, calibration)
            while len(setups) < SETUP_SAMPLES:
                scaled.append(scaled_setup())
            speed = calibration.speed()
            timed = sum(dt for _, dt in lat)
            print(f"  {len(trials)} distinct trials, {len(lat)} timed in "
                  f"{timed:.2f} s ({len(lat) / timed:.4g} trials/s in the "
                  f"closed loop); host speed {speed:.4f} (median of "
                  f"{len(calibration.samples)} calibration samples); "
                  f"set-up samples as measured: "
                  + ", ".join(f"{dt:.3f}" for dt in setups) + " s")
            metrics = {
                "trials_per_s": (len(best) / sum(best), "1/s"),
                "trial_ms_p50": (hd_quantile_ms(best, 50), "ms"),
                "trial_ms_p90": (hd_quantile_ms(best, 90), "ms"),
                "setup_s": (statistics.median(scaled), "s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
            samples = len(best)
        else:
            trials = [t for p in plan.passes[:plan.trace_passes] for t in p]
            lat, wall_plain = run_trials(trials, tally, 0)
            tracer = spans.Tracer(vars(M))
            tracer.install()
            try:
                _, wall_traced = run_trials(trials, tally, len(trials))
            finally:
                tracer.uninstall()
            leaked = spans.installed_spans(vars(M))
            if leaked:
                raise RuntimeError(f"trace wrappers left installed: {leaked[:5]}")
            metrics = tracer.metrics(wall_traced)
            metrics.update(ring_breakdown(lat))
            metrics["trace_overhead_ratio"] = (wall_traced / wall_plain, "ratio")
            samples = len(trials)
    finally:
        if plan is not None:
            plan.close()
    return tally, metrics, samples, to_first_trial


def report(workload, seed, trace, tally, metrics, samples, to_first_trial):
    failed = len(tally.failures)
    print(f"workload {workload} seed {seed} trace {int(trace)}: "
          f"{tally.attempted} trials attempted, {failed} failed, "
          f"fail_ratio {failed / tally.attempted:.4f}, "
          f"{samples} latency samples")
    print(f"  process start to first timed trial: {to_first_trial:.3f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:50s} {value:>14.6g} {unit}")
    print("  waiting: none -- one thread, closed loop, no queues; only cli "
          "reads files on the timed path")
    for rec in tally.failures[:MAX_REPORTED_FAILURES]:
        print("FAILURE " + json.dumps(rec), file=sys.stderr)
    return {"correct": failed == 0, "attempted": tally.attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="minimum timed wall time of an untraced run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: run a fixed trial list untraced and then traced, "
                         "and report the per-layer metrics")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)  # one set-up sample, see setup_sample
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        try:
            _, plan = set_up(args.workload, args.seed, args.seconds, False,
                             Tally(args.workload, args.seed))
        except ImportError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print("ready", flush=True)
        plan.close()
        return 0
    try:
        outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report(args.workload, args.seed, bool(args.trace), *outcome)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
