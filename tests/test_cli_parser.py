"""``main``'s plain-argv reader against the full parser.

For every command and for the top level, ``main`` must give the same exit
code, stdout and stderr as with the reader off, so that ``build_parser()``
reads every argv, and the same parsed ``Namespace``.
"""
from __future__ import annotations

import argparse
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from arrowcat import cli

FIXTURES = Path(__file__).parent / "fixtures"
TWOCHAIN = str(FIXTURES / "twochain.cat")
GALOIS = str(FIXTURES / "galois.cat")

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
    monkeypatch.setattr(cli, "_read_argv", lambda argv: None)
    assert narrow == _run(capsys, argv)


@pytest.mark.parametrize("command", VALID)
def test_namespace_matches_the_full_parser(command):
    argv = VALID[command]
    full = cli.build_parser().parse_args(argv)
    assert cli._read_argv(argv) == full


def test_plain_argv_builds_no_subparser(monkeypatch, capsys):
    made = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        made.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    assert _run(capsys, VALID["check"])[0] == 0
    assert made == []
    assert _run(capsys, VALID["check"] + ["--bogus"])[0] == 2
    assert made == list(cli._COMMANDS)
    made.clear()
    assert _run(capsys, ["-h"])[0] == 0
    assert made == list(cli._COMMANDS)


def test_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["arrowcat"] + VALID["identities"])
    assert cli.main() == 0
    assert capsys.readouterr().out.split() == ["i0", "i1"]


# Drawn argv: each command's own specs, each argument written plainly or with a
# fault that must send the argv to argparse.
NAMES = ["TwoChain", "P", "Q", "F", "G", "IdP", "eta", "eps", "i0", "i1", "Nope", "terminal", "products"]


def _specs(command: str) -> list[tuple]:
    return [spec() if callable(spec) else spec for spec in (cli._JSON, *cli._COMMANDS[command][2])]


ALL_FLAGS = sorted({flags[0] for command in cli._COMMANDS for flags, _ in _specs(command) if flags[0][0] == "-"})


def _value(draw, name: str, kwargs: dict) -> tuple[str, str | None]:
    """A plain value for an argument and None, or a faulty value and its fault."""
    kind = draw(st.sampled_from(["plain"] * 5 + ["dash", "bad"]))
    if kind == "dash":
        return draw(st.sampled_from(["-", "-1", "--json", "-h"])), "dash"
    if kind == "bad" and ("choices" in kwargs or kwargs.get("type") is int):
        return draw(st.sampled_from(["sideways", "1.5", "x", ""])), "bad"
    if "choices" in kwargs:
        return draw(st.sampled_from(kwargs["choices"])), None
    if kwargs.get("type") is int:
        return str(draw(st.integers(0, 3))), None
    if name == "file":
        return draw(st.sampled_from([TWOCHAIN, GALOIS, "missing.cat"])), None
    return draw(st.sampled_from(NAMES)), None


@st.composite
def drawn_argv(draw) -> tuple[list[str], list[str]]:
    """An argv for one command, and the faults written into it (none: it is plain)."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    specs = _specs(command)
    own = {flags[0] for flags, _ in specs}
    chunks, faults, dangling = [], [], []
    for (name,), kwargs in specs:
        if name[0] != "-":
            if draw(st.integers(0, 7)) == 0:
                faults.append("missing positional")
                continue
            value, fault = _value(draw, name, kwargs)
            chunks.append([value])
            # A value starting with - fills no positional, so an extra token may fill it.
            faults += {None: [], "bad": ["bad"], "dash": ["dash", "missing positional"]}[fault]
            continue
        count = draw(st.sampled_from([0, 1, 1, 1, 2] if kwargs.get("required") else [0, 0, 1, 2]))
        if kwargs.get("required") and count == 0:
            faults.append("missing required")
        if kwargs.get("action") == "store_true":
            chunks += [[name]] * count
            continue
        dangling.append(name)
        abbreviations = [name[:k] for k in range(3, len(name)) if name[:k] not in own]
        for _ in range(count):
            value, fault = _value(draw, name, kwargs)
            faults += [fault] if fault else []
            form = draw(st.sampled_from(["exact"] * 6 + ["equals", "abbreviated"]))
            if form == "equals":
                chunks.append([f"{name}={value}"])
                faults.append("equals")
            elif form == "abbreviated" and abbreviations:
                chunks.append([draw(st.sampled_from(abbreviations)), value])
                faults.append("abbreviated")
            else:
                chunks.append([name, value])
    extra = draw(st.sampled_from([None] * 6 + ["extra", "other", "-h", "--help", "--", "-", "dangling"]))
    if extra == "extra" and "missing positional" not in faults:
        chunks.append(["extra"])
    elif extra == "other":
        chunks.append([draw(st.sampled_from([flag for flag in ALL_FLAGS if flag not in own]))])
    elif extra in ("-h", "--help", "--", "-"):
        chunks.append([extra])
    elif not (extra == "dangling" and dangling):
        extra = None
    faults += [extra] if extra else []
    argv = [command] + [token for chunk in draw(st.permutations(chunks)) for token in chunk]
    if extra == "dangling":
        argv.append(draw(st.sampled_from(dangling)))
    return argv, faults


@settings(max_examples=400, deadline=None)
@given(drawn_argv())
def test_reader_reads_plain_argv_and_refuses_the_rest(case):
    argv, faults = case
    namespace = cli._read_argv(argv)
    assert (namespace is not None) == (not faults)
    if namespace is not None:
        assert namespace == cli.build_parser().parse_args(argv)


def _main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(drawn_argv())
def test_main_matches_main_without_the_reader(case):
    argv, _ = case
    read = _main(argv)
    with mock.patch.object(cli, "_read_argv", lambda argv: None):
        assert read == _main(argv)
