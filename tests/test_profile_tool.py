"""Smoke test of ``tools/profile.py``, the timer and profiler of tails,
``mon`` commands, workload passes and workload input builds."""

import os
import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "profile.py"


def run_tool(tmp_path, *argv) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), *argv], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)


def profile(tmp_path, *argv) -> list:
    done = run_tool(tmp_path, *argv)
    assert done.returncode == 0 and done.stderr == ""
    return done.stdout.splitlines()


def test_profiles_a_mon_command_and_writes_nothing(tmp_path):
    head, code, columns, *rows = profile(tmp_path, "--top", "4", "--mon", "check",
                                         "--suite", "sigma", "--iters", "1")
    assert head.startswith("mon check --suite sigma --iters 1: wall ")
    assert head.endswith(" s under cProfile") and ", process " in head
    assert code == "mon exit 0"
    assert columns.split() == ["self", "s", "cum", "s", "calls", "function"]
    assert len(rows) == 4 and all(row.endswith(")") for row in rows)
    assert list(tmp_path.iterdir()) == []


def test_times_alone_without_a_profiler(tmp_path):
    lines = profile(tmp_path, "--top", "0", "--mon", "check", "--iters", "10001")
    assert lines[0].startswith("mon check --iters 10001: wall ")
    assert lines[0].endswith(" s") and lines[1:] == ["mon exit 2"]


def test_a_command_mon_refuses_to_parse_is_not_timed(tmp_path):
    # --mon takes the rest of the line, so a trailing --top goes to mon
    done = run_tool(tmp_path, "--mon", "check", "--suite", "sigma", "--top", "12")
    assert done.returncode == 2 and done.stdout == ""
    assert "unrecognized arguments: --top 12" in done.stderr
    assert "must come last" in " ".join(profile(tmp_path, "--help"))
    assert list(tmp_path.iterdir()) == []


def test_names_the_two_tails(tmp_path):
    usage = " ".join(profile(tmp_path, "--help"))
    assert "--tail {f2-tr4,q-tr4}" in usage


def test_profiles_a_workload_pass_and_writes_nothing(tmp_path):
    head, trials, columns, *rows = profile(tmp_path, "--workload", "enum",
                                           "--passes", "1", "--top", "3")
    assert head.startswith("--workload enum --seed 1 --passes 1: wall ")
    assert head.endswith(" s under cProfile")
    assert re.fullmatch(r"\d+ trials, median process ms: \d+\.\d{3}", trials)
    assert columns.split() == ["self", "s", "cum", "s", "calls", "function"]
    assert len(rows) == 3 and all(row.endswith(")") for row in rows)
    assert list(tmp_path.iterdir()) == []


def test_profiles_a_workload_setup_and_writes_nothing(tmp_path):
    head, built, columns, *rows = profile(tmp_path, "--workload", "enum", "--setup",
                                          "--top", "3")
    assert head.startswith("--workload enum --seed 1 --passes 1 --setup: wall ")
    assert head.endswith(" s under cProfile")
    assert re.fullmatch(r"1 passes, \d+ trials built", built)
    assert columns.split() == ["self", "s", "cum", "s", "calls", "function"]
    assert len(rows) == 3 and all(row.endswith(")") for row in rows)
    assert list(tmp_path.iterdir()) == []


def test_loading_the_tool_tests_keeps_the_standard_profile_module(tmp_path):
    # tools/profile.py would shadow the standard library's profile module,
    # which cProfile imports, if tools/ were put on sys.path
    code = ("import sys, test_loc, test_reach, cProfile; "
            "assert callable(cProfile.run); "
            "assert not [p for p in sys.path if p.endswith('tools')]")
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(tests.parent / "src"), str(tests)])}
    done = subprocess.run([sys.executable, "-B", "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_lists_the_callers_of_a_function_and_writes_nothing(tmp_path):
    head, trials, title, columns, *rows = profile(
        tmp_path, "--workload", "enum", "--passes", "1", "--top", "0",
        "--callers", "_hom_generators")
    assert head.endswith(" s under cProfile")
    assert re.fullmatch(r"\d+ trials, median process ms: \d+\.\d{3}", trials)
    found = re.fullmatch(r"callers of almost_split\.py:\d+\(_hom_generators\): "
                         r"([\d,]+) calls, \d+\.\d{3} s cumulative", title)
    assert found and columns.split() == ["calls", "cum", "s", "caller"]
    counts = [re.fullmatch(r" *([\d,]+) +\d+\.\d{3}  \S+:\d+\(\w+\)", row) for row in rows]
    assert rows and all(counts)
    # each call comes from one caller
    calls = [int(c.group(1).replace(",", "")) for c in counts]
    assert sum(calls) == int(found.group(1).replace(",", ""))
    assert list(tmp_path.iterdir()) == []


def test_a_name_no_function_has_exits_one(tmp_path):
    done = run_tool(tmp_path, "--top", "0", "--callers", "no_such_function",
                    "--mon", "check", "--suite", "sigma", "--iters", "1")
    assert done.returncode == 1
    assert done.stderr == "no profiled function is named no_such_function\n"
