"""The CLI's input contract, over cases derived from `build_parser()`.

Whatever the arguments, `main` returns 0, 1 or 2 and lets no exception
escape; an exit 2 prints nothing on stdout and, on stderr, either one
`error:` line or an argparse usage message.  A command builds its own
sub-parser alone, and prints what the parser of every command would.
"""

import argparse
import contextlib
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leafcat import cli
from leafcat.cli import COMMANDS, build_parser, main

SUBPARSERS = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)).choices

# small valid values of each subcommand's inputs, by dest; verify runs the
# suite its --max-n help lists first, so that flag's first range is its cap
BASE = {
    "generate": {"family": "chain", "param": "3"},
    "leaf-function": {"family": "chain", "param": "3"},
    "leaf-word": {"family": "chain", "param": "4"},
    "rc": {"word": "0101"},
    "pnf": {"word": "0101"},
    "word-of": {"sequence": "1,1,2"},
    "check-pn": {"word": "1010"},
    "equiv": {"word1": "01", "word2": "10"},
    "realize": {"values": "0,0,2,2"},
    "poset": {"max_size": "3"},
    "verify": {"suite": "poset", "max_n": "3"},
}
NON_ASCII = "１٣é—"  # int() reads the fullwidth and the Arabic-Indic digit alone


def _actions(parser) -> list[argparse.Action]:
    """The actions of a subcommand, without its --help."""
    return [a for a in parser._actions if a.dest != "help"]


def _cap(action: argparse.Action) -> int:
    """The cap an int flag's help names: the end of its first low..high."""
    return int(re.search(r"\d+\.\.(\d+)", action.help).group(1))


def _argv(name: str, **override) -> list[str]:
    """`name` with its BASE values, `override` replacing them; a value given
    to one member of a mutually exclusive group drops the other members."""
    parser = SUBPARSERS[name]
    values = {**BASE[name], **override}
    for group in parser._mutually_exclusive_groups:
        dests = {a.dest for a in group._group_actions}
        if dests & override.keys():
            values = {k: v for k, v in values.items() if k not in dests - override.keys()}
    if "family" not in values:  # --param goes with --family only
        values.pop("param", None)
    argv = [name]
    for action in _actions(parser):
        if action.dest in values:
            value = values[action.dest]
            if action.nargs == 0:
                argv += action.option_strings[:1] if value else []
            else:
                argv += [*action.option_strings[:1], value]
    return argv


ANY = (0, 1, 2)


def _cases() -> list[tuple[list[str], tuple[int, ...]]]:
    """(argv, the exit codes it may return) of every case."""
    cases = [([], (2,)), (["nonesuch"], (2,)), (["--help"], (0,))]
    for name, parser in SUBPARSERS.items():
        cases += [(_argv(name), (0,)), (["--json", *_argv(name)], (0,)), ([name, "--help"], (0,))]
        for action in _actions(parser):
            if action.nargs == 0:
                cases.append((_argv(name, **{action.dest: True}), ANY))
            elif action.choices:
                cases += [(_argv(name, **{action.dest: c}), ANY) for c in action.choices]
            elif action.type is int:
                cap = _cap(action)
                cases += [(_argv(name, **{action.dest: str(cap)}), (0, 1)),
                          (_argv(name, **{action.dest: str(cap + 1)}), (2,))]
            else:
                cases += [(_argv(name, **{action.dest: v}), ANY) for v in ("", NON_ASCII)]
    return cases


def _check(argv: list[str]) -> int:
    """Run `main(argv)` and check the contract; return its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert out == "", (argv, out)
        one_error = err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
        usage = err.startswith("usage: leafcat") and ": error: " in err
        assert one_error or usage, (argv, err)
    return code


def test_base_covers_every_subcommand():
    assert BASE.keys() == SUBPARSERS.keys()
    for name, parser in SUBPARSERS.items():
        assert BASE[name].keys() <= {a.dest for a in _actions(parser)}, name


CASES = _cases()


@pytest.mark.parametrize("argv, codes", CASES, ids=[" ".join(argv) for argv, _ in CASES])
def test_cli_contract(argv, codes):
    assert _check(argv) in codes


POSITIONALS = [(name, a.dest) for name, parser in SUBPARSERS.items()
               for a in parser._actions if not a.option_strings]


@pytest.mark.parametrize("name, dest", POSITIONALS, ids=[f"{n}-{d}" for n, d in POSITIONALS])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(text=st.text(max_size=20))
def test_cli_contract_on_any_positional(name, dest, text):
    _check(_argv(name, **{dest: text}))


def _outcome(argv: list[str]) -> tuple[int, str, str]:
    """`main(argv)`'s exit code, stdout and stderr, the verify timings masked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out = re.sub(r'time=\d+\.\d\ds|"seconds": [0-9.e-]+', "", out.getvalue())
    return code, out, err.getvalue()


# argv that argparse answers with a usage line or a help text; the tokens
# before the command that are not --json (-h, an unknown option, -1, --js,
# --json=1) leave the command unread, and a trailing token is unrecognised
ERRORS = [[], ["nonesuch"], ["nonesuch", "0101"], ["--help"], ["-h", "rc"], ["rc"],
          ["rc", "0101", "extra"], ["--json", "rc", "0101", "extra"], ["--bogus", "rc", "0101"],
          ["-1", "rc", "0101"], ["--js", "rc", "0101"], ["--json=1", "rc", "0101"],
          ["verify", "--suite", "nonesuch"], *([name, "--help"] for name in SUBPARSERS)]


def _assert_as_every_sub_parser(argv, monkeypatch) -> None:
    one = _outcome(argv)
    monkeypatch.setattr(cli, "build_parser", lambda command=None: build_parser())
    assert _outcome(argv) == one, argv


@pytest.mark.parametrize("argv", [argv for argv, _ in CASES], ids=[" ".join(a) for a, _ in CASES])
def test_one_sub_parser_prints_as_every_one(argv, monkeypatch):
    _assert_as_every_sub_parser(argv, monkeypatch)


@pytest.mark.parametrize("columns", ["40", "200"])
@pytest.mark.parametrize("argv", ERRORS, ids=[" ".join(argv) for argv in ERRORS])
def test_one_sub_parser_prints_usage_and_help_as_every_one(argv, columns, monkeypatch):
    monkeypatch.setenv("COLUMNS", columns)  # argparse wraps its usage lines to this width
    _assert_as_every_sub_parser(argv, monkeypatch)


def test_no_command_or_an_unknown_one_is_named_command():
    # the usage line lists every command, and the error names the argument itself
    code, out, err = _outcome([])
    assert (code, out) == (2, "")
    assert err.endswith("error: the following arguments are required: command\n")
    assert "error: argument command: invalid choice: 'nonesuch'" in _outcome(["nonesuch"])[2]


def test_commands_name_the_sub_parsers_in_order():
    assert tuple(SUBPARSERS) == COMMANDS


# argv, and the number of sub-parsers it builds
BUILT = [(["rc", "0101"], 1), (["--json", "rc", "0101"], 1), (["verify", "--help"], 1),
         (["rc", "0101", "extra"], 1), ([], len(COMMANDS)), (["--help"], len(COMMANDS)),
         (["-h", "rc"], len(COMMANDS)), (["-1", "rc", "0101"], len(COMMANDS)),
         (["--js", "rc", "0101"], len(COMMANDS)), (["nonesuch"], len(COMMANDS))]


@pytest.mark.parametrize("argv, built", BUILT, ids=[" ".join(argv) for argv, _ in BUILT])
def test_a_command_builds_its_sub_parser_alone(argv, built, monkeypatch):
    sizes = []

    def counting(command=None):
        parser = build_parser(command)
        sizes.extend(len(a.choices) for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction))
        return parser

    monkeypatch.setattr(cli, "build_parser", counting)
    _outcome(argv)
    assert sizes == [built]
