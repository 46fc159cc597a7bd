"""The `mon` command surface, frozen.

Walks the parser and compares every subcommand with a literal table:
positional names, and per option its strings, destination, default, type,
choices and metavar (so whether ``-o`` is accepted, too).  A refactor of
the command wiring must leave this table true; adding, dropping or
renaming a flag is a deliberate change that edits it.
"""

from __future__ import annotations

import argparse

from monocat.cli import build_parser

SUITE_NAMES = ["sigma", "tr1", "nullity", "tr2", "tr3", "tr4", "inv",
               "factor", "periodic", "tau"]
OUT = (("-o",), "out", None, None, None, "PATH")
DIM = (("--dim",), "dim", 0, "int", None, None)

# subcommand -> (positionals, options in declaration order); an option is
# (option strings, dest, default, type name, choices, metavar)
SURFACE = {
    "validate": (["object"], []),
    "sigma": (["object"], [OUT]),
    "suspend": (["object"], [OUT]),
    "cone": (["morphism"], [OUT]),
    "triangle": (["morphism"], [OUT]),
    "rotate": (["morphism"], [OUT]),
    "decompose": (["object"], []),
    "coker": (["object"], []),
    "is-projective": (["object"], []),
    "nullhomotopic": (["morphism"], []),
    "stable-hom": (["source", "target"], []),
    "iso-test": (["morphism"], []),
    "resolve": (["object"], []),
    "tau": (["object"], [OUT, DIM]),
    "tau-gp": (["object"], [DIM]),
    "ar-seq": (["object"], [OUT]),
    "ar-verify": (["object"], []),
    "check": ([], [(("--suite",), "suite", None, None, SUITE_NAMES, None),
                   (("--seed",), "seed", 0, "int", None, None),
                   (("--iters",), "iters", 100, "int", None, None),
                   (("--max-size",), "max_size", 3, "int", None, None),
                   (("--max-t",), "max_t", 3, "int", None, None)]),
    "faithful": ([], [(("--p",), "p", 2, "int", None, None),
                      (("--max-t",), "max_t", 3, "int", None, None)]),
}


def _surface(parser: argparse.ArgumentParser) -> tuple:
    positionals = [a.metavar or a.dest for a in parser._actions
                   if not a.option_strings]
    options = [(tuple(a.option_strings), a.dest, a.default,
                getattr(a.type, "__name__", a.type),
                list(a.choices) if a.choices is not None else None,
                a.metavar)
               for a in parser._actions
               if a.option_strings and not isinstance(a, argparse._HelpAction)]
    return positionals, options


def test_every_subcommand_keeps_its_arguments():
    parser = build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert sub.required and sub.dest == "command"
    assert list(sub.choices) == list(SURFACE)
    for name, subparser in sub.choices.items():
        assert _surface(subparser) == SURFACE[name], name
        assert subparser.prog == f"mon {name}"
