"""Time one slow case of monocat and show where its time goes.

Prints the wall and process time of one run of a target, then the
functions with the most cProfile self time.  A target is a named tail, a
slow case that performance work re-times, or any ``mon`` command, run in
process with its output discarded.  The tails are defined once, in
``TAILS``:

* ``f2-tr4``: ``mon check --suite tr4 --iters 1 --max-t 512 --max-size 8
  --seed 2``, the slowest ``mon`` run over F_2 known;
* ``q-tr4``: the octahedron (``tr4``) trials of ``perfbench`` over
  k[x]_(x) with k = Q, at n = 3 and t = 2, for seeds 0 to 2.  Their inputs
  come from ``perfbench/workloads.py``, which is only read, and are drawn
  before the clock starts.

``--workload W --seed S --passes K`` runs every trial of the first K passes
of a ``perfbench`` workload in process.  Its inputs come from
``perfbench/workloads.py``, which is only read, built from seed S inside a
temporary directory that is removed afterwards; the trials run once to
warm up before they are timed.  With ``--setup`` the input build itself,
``BUILDERS[W]`` of those K passes, is timed and profiled in place of the
trials: the cost a ``perfbench`` run reports as ``setup_s``, less the
interpreter start and the imports.  ``perfbench/run.py --seconds 20``
builds 7 passes of ``tri-int``.

``--mon`` takes the rest of the line as the ``mon`` command, so it must come
last; the tool's own options go before it.  A command line that ``mon``'s
parser refuses is not timed: its usage error is printed and its exit code
returned.  A command that parses is timed whatever its exit code, which is
printed.

Standard library only; runs from any directory.

    python3 tools/profile.py --tail f2-tr4
    python3 tools/profile.py --tail q-tr4 --top 0   # times only, no profiler
    python3 tools/profile.py --top 12 --mon check --suite sigma --iters 1
    python3 tools/profile.py --workload enum --seed 1 --passes 2
    python3 tools/profile.py --workload tri-int --passes 7 --setup

``--callers NAME`` lists, for each profiled function named NAME, its
callers with the calls each made and the cumulative seconds spent in those
calls, from ``pstats``' caller data.  A NAME that no profiled function has
prints a note on stderr and exits 1.

    python3 tools/profile.py --workload enum --callers _hom_generators --top 0

With ``--top 0`` and no ``--callers`` no profiler runs, so the times are
those of the bare code; otherwise they include cProfile's overhead.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Run as a script, this folder heads sys.path, and cProfile's own `import
# profile` would load this file in place of the standard library's.
if sys.path and Path(sys.path[0] or ".").resolve() == ROOT / "tools":
    del sys.path[0]

import argparse  # noqa: E402
import contextlib  # noqa: E402
import cProfile  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import pstats  # noqa: E402
import random  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from types import SimpleNamespace  # noqa: E402


def mon_runs(argv: list) -> list:
    """One run of ``mon argv``, its stdout and stderr discarded."""
    from monocat import cli

    def run():
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main(list(argv))
    return [run]


def monocat_modules() -> SimpleNamespace:
    """The monocat modules ``perfbench`` traces, by short name."""
    import spans
    return SimpleNamespace(**{m: importlib.import_module(f"monocat.{m}")
                              for m in spans.MODULES})


def tri_runs(kind: str, q, n: int, t: int, seeds) -> list:
    """One run per seed of a ``perfbench`` triangle trial over
    k[x]_(x), its inputs drawn from ``random.Random(seed)``."""
    import workloads
    M = monocat_modules()
    ring, trial = workloads.Ring("poly-local", q, t), workloads._TRI_TRIALS[kind]
    inputs = [workloads._tri_inputs(M, ring, kind, n, random.Random(s)) for s in seeds]
    return [lambda args=args: trial(M, ring, *args) for args in inputs]


def workload_runs(name: str, seed: int, passes: int, workdir: Path) -> list:
    """One run per trial of the first ``passes`` passes of a ``perfbench``
    workload, its inputs built from ``seed`` under ``workdir``; each runs
    once here, to warm up."""
    import workloads
    plan = workloads.BUILDERS[name](monocat_modules(), seed, workdir, passes=passes)
    runs = [trial.run for trial_pass in plan.passes[:passes] for trial in trial_pass]
    for run in runs:
        run()
    return runs


def setup_runs(name: str, seed: int, passes: int, workdir: Path) -> list:
    """One run that builds the inputs of the first ``passes`` passes of a
    ``perfbench`` workload from ``seed`` under ``workdir``, and returns
    its plan."""
    import workloads
    M = monocat_modules()
    return [lambda: workloads.BUILDERS[name](M, seed, workdir, passes=passes)]


TAILS = {
    "f2-tr4": lambda: mon_runs(["check", "--suite", "tr4", "--iters", "1", "--max-t",
                                "512", "--max-size", "8", "--seed", "2"]),
    "q-tr4": lambda: tri_runs("tr4", None, 3, 2, range(3)),
}


def measure(runs: list, profiler=None) -> tuple:
    """Run each callable once; (wall s, process s, per-run process s, the
    last run's return value)."""
    wall, cpu, out = time.perf_counter(), time.process_time(), None
    per_run = []
    for run in runs:
        start = time.process_time()
        if profiler is None:
            out = run()
        else:
            out = profiler.runcall(run)
        per_run.append(time.process_time() - start)
    return time.perf_counter() - wall, time.process_time() - cpu, per_run, out


def where(func: tuple) -> str:
    """A pstats function key (path, line, name) as ``file:line(name)``."""
    path, line, name = func
    return f"{Path(path).name}:{line}({name})" if line else f"{path}({name})"


def top_self(profiler, count: int) -> list:
    """The ``count`` functions with the most self time, as text rows."""
    stats = pstats.Stats(profiler).stats
    rows = sorted(stats.items(), key=lambda item: -item[1][2])[:count]
    out = [f"{'self s':>8} {'cum s':>8} {'calls':>9}  function"]
    for func, (_, calls, self_s, cum_s, _) in rows:
        out.append(f"{self_s:8.3f} {cum_s:8.3f} {calls:9,d}  {where(func)}")
    return out


def callers(profiler, name: str) -> list:
    """For each profiled function named ``name``, a head row with its calls
    and cumulative seconds, then one row per caller, the most cumulative
    time first: the calls it made and the cumulative seconds they took."""
    stats = pstats.Stats(profiler).stats
    out = []
    for func, (_, calls, _, cum_s, by_caller) in sorted(stats.items()):
        if func[2] != name:
            continue
        out.append(f"callers of {where(func)}: {calls:,d} calls, "
                   f"{cum_s:.3f} s cumulative")
        out.append(f"{'calls':>9} {'cum s':>8}  caller")
        for caller, (_, ncalls, _, c_cum) in sorted(by_caller.items(),
                                                     key=lambda item: -item[1][3]):
            out.append(f"{ncalls:9,d} {c_cum:8.3f}  {where(caller)}")
    return out


def main(argv=None) -> int:
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    target = ap.add_mutually_exclusive_group(required=True)
    target.add_argument("--tail", choices=sorted(TAILS))
    target.add_argument("--mon", nargs=argparse.REMAINDER, metavar="ARGV",
                        help="a mon command line; takes the rest of the line, "
                             "so it must come last")
    target.add_argument("--workload", choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, default=1, help="the workload's seed")
    ap.add_argument("--passes", type=int, default=1,
                    help="the workload's passes to run (with --setup, to "
                         "build), from the first")
    ap.add_argument("--setup", action="store_true",
                    help="time the workload's input build, not its trials")
    ap.add_argument("--top", type=int, default=15,
                    help="functions to list by self time; 0 runs no profiler "
                         "unless --callers asks for one")
    ap.add_argument("--callers", metavar="NAME",
                    help="list the callers of each function named NAME, with "
                         "their calls and cumulative seconds")
    args = ap.parse_args(argv)
    if args.setup and not args.workload:
        ap.error("--setup needs --workload")
    if args.mon is not None:
        from monocat import cli
        try:
            cli.build_parser().parse_args(args.mon)
        except SystemExit as exc:  # a mistyped command: nothing to time
            return int(exc.code or 0)
    profiler = cProfile.Profile() if args.top > 0 or args.callers else None
    with tempfile.TemporaryDirectory() as tmp:  # a workload's input files
        if args.workload:
            name = f"--workload {args.workload} --seed {args.seed} --passes {args.passes}"
            make = setup_runs if args.setup else workload_runs
            runs = make(args.workload, args.seed, args.passes, Path(tmp))
            name += " --setup" if args.setup else ""
        else:
            name = f"--tail {args.tail}" if args.tail else "mon " + " ".join(args.mon)
            runs = TAILS[args.tail]() if args.tail else mon_runs(args.mon)
        wall, cpu, per_run, out = measure(runs, profiler)
    print(f"{name}: wall {wall:.3f} s, process {cpu:.3f} s"
          + (" under cProfile" if profiler else ""))
    if args.setup:
        built = out.passes
        print(f"{len(built)} passes, {sum(map(len, built))} trials built")
    elif args.workload:
        print(f"{len(per_run)} trials, median process ms: "
              f"{1000 * sorted(per_run)[len(per_run) // 2]:.3f}")
    elif len(per_run) > 1:
        print("per run, process s: " + ", ".join(f"{s:.3f}" for s in per_run))
    if args.mon is not None:
        print(f"mon exit {out}")
    if args.top > 0:
        print("\n".join(top_self(profiler, args.top)))
    if args.callers:
        rows = callers(profiler, args.callers)
        if not rows:
            print(f"no profiled function is named {args.callers}", file=sys.stderr)
            return 1
        print("\n".join(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
