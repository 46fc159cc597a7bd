"""Smoke test of ``tools/reach.py``, the unreached-line report."""

import importlib.util
import sys
from pathlib import Path

from monocat import rings

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
reach_tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach_tool)
Reach, _ranges = reach_tool.Reach, reach_tool._ranges
executable_lines, report = reach_tool.executable_lines, reach_tool.report


def module_report(lines: list, name: str) -> list:
    start = next(i for i, line in enumerate(lines) if line.startswith(name + ":"))
    end = next((i for i in range(start + 1, len(lines))
                if not lines[i].startswith("  ")), len(lines))
    return lines[start:end]


def test_one_traced_call_is_reported():
    before = sys.gettrace()
    ctx = rings.RingCtx.int_local(2, 3)
    with Reach() as reach:
        assert ctx.valuation(ctx.pi_pow(2)) == 2
    assert sys.gettrace() is before
    path = str(Path(rings.__file__).resolve())
    hit = reach.hits[path]
    body = rings.IntLocal._valuation.__code__.co_firstlineno
    assert {body + 3, body + 4} <= hit  # the loop of IntLocal._valuation ran
    lines = report(reach.hits)
    (head, *rest) = module_report(lines, "rings.py")
    source = Path(path).read_text()
    missed = len(executable_lines(source, path) - hit)
    assert head == f"rings.py: {missed} of {len(executable_lines(source, path))} " \
                   "executable lines unreached"
    assert [line.split(":")[0] for line in rest] == ["  lines", "  raise"]
    # a module imported before tracing and never entered is unreached
    checks = ROOT / "src" / "monocat" / "checks.py"
    n = len(executable_lines(checks.read_text(), str(checks)))
    assert module_report(lines, "checks.py")[0] == \
        f"checks.py: {n} of {n} executable lines unreached"


def test_ranges_fold_runs():
    assert _ranges({9, 3, 4, 5}) == "3-5, 9"
    assert _ranges([7]) == "7"
    assert _ranges([]) == ""
