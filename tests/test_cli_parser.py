"""The one-command parser that ``main`` builds against the full parser.

For every command and for the top level, ``main`` must give the same exit
code, stdout and stderr as with the full ``build_parser()``, and the same
parsed ``Namespace``.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import pytest

from arrowcat import cli

FIXTURES = Path(__file__).parent / "fixtures"
TWOCHAIN = str(FIXTURES / "twochain.cat")

# A valid argv for each command, and a bad ``choices`` value where it has one.
VALID = {
    "check": ["check", TWOCHAIN],
    "identities": ["identities", TWOCHAIN, "--cat", "TwoChain"],
    "homs": ["homs", TWOCHAIN, "--cat", "TwoChain", "--src", "i0", "--dst", "i1"],
    "skeleton": ["skeleton", TWOCHAIN, "--cat", "TwoChain", "--seed", "2"],
    "iso": ["iso", TWOCHAIN, "--left", "TwoChain", "--right", "TwoChain", "--max-morphisms", "9"],
    "equiv": ["equiv", TWOCHAIN, "--left", "TwoChain", "--right", "TwoChain", "--brute-force"],
    "functor-check": ["functor-check", TWOCHAIN, "--functor", "F"],
    "nat-check": ["nat-check", TWOCHAIN, "--nat", "eta"],
    "adjoint-check": ["adjoint-check", TWOCHAIN, "--left", "F", "--right", "G", "--unit", "eta",
                      "--counit", "eps", "--mode", "paper-literal"],
    "limits": ["limits", TWOCHAIN, "--cat", "TwoChain", "--scope", "terminal"],
    "admissible": ["admissible", TWOCHAIN, "--left", "F", "--right", "G", "--unit", "eta",
                   "--counit", "eps", "--scope", "products"],
    "convert": ["convert", TWOCHAIN, "--to", "standard", "--cat", "TwoChain"],
    "generate": ["generate", "chain", "--n", "3", "--prefix", "p", "--json"],
}
BAD_CHOICE = {
    "adjoint-check": VALID["adjoint-check"][:-1] + ["sideways"],
    "convert": ["convert", TWOCHAIN, "--to", "sideways"],
    "generate": ["generate", "sideways"],
}


def _cases(command: str) -> list[list[str]]:
    valid = VALID[command]
    return [
        valid,
        [command, "-h"],
        valid[:2],  # no options: a required one is missing where there is one
        [command],  # no arguments
        valid + ["--bogus"],
        valid + ["extra"],
        BAD_CHOICE.get(command, [command, "--json"]),
    ]


TOP_LEVEL = [[], ["-h"], ["--help"], ["nope"], ["nope", "-h"], ["--json", "check", TWOCHAIN],
             ["-h", "check"], ["Check", TWOCHAIN]]
CASES = TOP_LEVEL + [argv for command in VALID for argv in _cases(command)]


@pytest.fixture(autouse=True)
def columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def _run(capsys, argv) -> tuple[int, str, str]:
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_every_command_is_covered():
    assert list(VALID) == list(cli._COMMANDS)


def _case_id(argv: list[str]) -> str:
    return " ".join(argv).replace(TWOCHAIN, "twochain.cat") or "(no arguments)"


@pytest.mark.parametrize("argv", CASES, ids=_case_id)
def test_main_matches_the_full_parser(argv, capsys, monkeypatch):
    narrow = _run(capsys, argv)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert narrow == _run(capsys, argv)


@pytest.mark.parametrize("command", VALID)
def test_namespace_matches_the_full_parser(command):
    argv = VALID[command]
    assert cli.build_parser(command).parse_args(argv) == cli.build_parser().parse_args(argv)


def test_one_command_builds_one_subparser(monkeypatch, capsys):
    made = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        made.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    assert _run(capsys, VALID["check"])[0] == 0
    assert made == ["check"]
    made.clear()
    assert _run(capsys, ["-h"])[0] == 0
    assert made == list(cli._COMMANDS)


def test_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["arrowcat"] + VALID["identities"])
    assert cli.main() == 0
    assert capsys.readouterr().out.split() == ["i0", "i1"]
