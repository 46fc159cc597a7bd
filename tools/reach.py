"""Which lines of ``src/monocat`` the benchmark workloads never reach.

Runs one pass of every ``perfbench`` workload at ``--seed`` under
``sys.settrace``, from a fresh import of monocat, and prints for each module the executable lines that no workload
reached, with the ``raise`` lines listed apart.  A line is executable when
it carries bytecode in some code object of its module.  Standard library
only; runs from any directory.

    python3 tools/reach.py --seed 1

It only reads ``perfbench``: bytecode writing is off, and the files of the
``cli`` workload go to a temporary directory.
"""

import argparse
import ast
import importlib
import os
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "monocat"
PERFBENCH = ROOT / "perfbench"


def executable_lines(source: str, filename: str) -> set:
    """The lines that carry bytecode in any code object of a module."""
    lines, stack = set(), [compile(source, filename, "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def raise_lines(source: str) -> set:
    return {node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Raise)}


class Reach:
    """A context that records, per file of ``src/monocat``, the lines run in
    it; the trace function in place before it is restored on exit."""

    def __init__(self):
        self.prefix = str(PACKAGE.resolve())
        self.hits: dict[str, set] = {}

    def _trace(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(self.prefix):
            return None
        lines = self.hits.setdefault(code.co_filename, set())
        lines.add(code.co_firstlineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    def __enter__(self):
        self.previous = sys.gettrace()
        sys.settrace(self._trace)
        return self

    def __exit__(self, *exc):
        sys.settrace(self.previous)


def _ranges(lines) -> str:
    """Sorted line numbers with runs folded: 3-5, 9."""
    out, lines = [], sorted(lines)
    for i, n in enumerate(lines):
        if i and n == lines[i - 1] + 1:
            out[-1][1] = n
        else:
            out.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def report(hits: dict) -> list:
    """Per module: unreached executable lines, then unreached raise lines."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        executable = executable_lines(source, str(path))
        missed = executable - hits.get(str(path.resolve()), set())
        raises = missed & raise_lines(source)
        out.append(f"{path.name}: {len(missed)} of {len(executable)} "
                   "executable lines unreached")
        if missed - raises:
            out.append(f"  lines: {_ranges(missed - raises)}")
        if raises:
            out.append(f"  raise: {_ranges(raises)}")
    return out


def run_workloads(seed: int) -> dict:
    """Trace a fresh import of monocat and one pass of each workload."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(PACKAGE.parent), str(PERFBENCH)]
    import spans
    import workloads
    for name in [m for m in sys.modules if m == "monocat" or m.startswith("monocat.")]:
        del sys.modules[name]
    with Reach() as reach, tempfile.TemporaryDirectory() as tmp:
        M = types.SimpleNamespace(**{m: importlib.import_module(f"monocat.{m}")
                                     for m in spans.MODULES + ("checks",)})
        for name in workloads.BUILDERS:
            plan = workloads.BUILDERS[name](M, seed, Path(tmp) / "work" / name)
            try:
                for trial in plan.passes[0]:
                    trial.run()
            finally:
                plan.close()
    return reach.hits


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    print("\n".join(report(run_workloads(args.seed))))
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: the signal module's documented recipe,
        # so that Python's flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
