"""The command-line parser against the ``argparse`` parser it replaced.

``cli._parse_args`` is written for the one positional argument and six
options the command line has; ``oracles.argparse_cli_parser`` is the
``argparse`` parser of the same arguments.  On every drawn argument list
both give the same namespace, or both exit 2, or both exit 0 for help.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from cellres.cli import SUBCOMMANDS, USAGE, _parse_args, run
from oracles import argparse_cli_parser

NAMES = ("--input", "--complex", "--t", "--beta", "--order", "--permutations",
         "--help", "-h")
VALUES = ("", "3", "-1", "-12", "+4", " 5", "1_0", "x", "P", "Q", "p", "-1,2",
          "-1.5", "-.5", "- 1", "-x", "1,0,2", "1,2;2,1", "file:x.json", "x y",
          "-h y", "--in x", "h", "hh", "=", "-", "--")
JUNK = ("-", "--", "", "---", "--=x", "-x", "-hh", "-hx", "-h=h", "-h=", "--h",
        "--help=", "--b", "--b=1", "--p=1", "bogus", "-1\n", "--seed", "--t=")


def _prefixes(name):
    return st.integers(2, len(name)).map(lambda k: name[:k])


TOKENS = st.one_of(
    st.sampled_from(SUBCOMMANDS),
    st.sampled_from(NAMES),
    st.sampled_from(NAMES).flatmap(_prefixes),
    st.tuples(st.sampled_from(NAMES).flatmap(_prefixes), st.sampled_from(VALUES))
    .map("=".join),
    st.sampled_from(VALUES),
    st.integers(-30, 30).map(str),
    st.sampled_from(JUNK),
)


def _outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return "namespace", dict(vars(parse(argv))), out.getvalue(), err.getvalue()
        except SystemExit as exc:
            return "exit", exc.code, out.getvalue(), err.getvalue()


@settings(max_examples=1500)
@given(st.lists(TOKENS, max_size=7))
def test_parser_matches_argparse(argv):
    kind, value, out, err = _outcome(_parse_args, argv)
    assert (kind, value) == _outcome(argparse_cli_parser().parse_args, argv)[:2]
    if kind == "exit" and value == 2:
        assert err.startswith(USAGE) and "cellres: error: " in err and not out
    elif kind == "exit":
        assert out == USAGE and not err


@pytest.mark.parametrize("argv, expected", [
    (["hull", "--inp=job.json", "--t", "-3"], {"input": "job.json", "t": -3}),
    (["--order", "Q", "partition", "--order=P"], {"order": "P"}),
    (["--beta=-1,2", "annihilator"], {"beta": "-1,2"}),
    (["--", "residue"], {}),
])
def test_parser_examples(argv, expected):
    args = vars(_parse_args(argv))
    assert args.pop("subcommand") in SUBCOMMANDS
    assert args == {**dict.fromkeys(args), **expected}


@pytest.mark.parametrize("argv", [
    ["duality-check", "--box", "2,2"], ["hull", "--t", "x"], ["hull", "--order", "R"],
    ["hull", "--beta", "-1,2"], ["bogus"], [], ["hull", "extra"], ["hull", "--seed", "1"],
    ["hull", "--=1"],
])
def test_usage_errors_exit_2_with_the_usage(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.err.startswith(USAGE) and not captured.out


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["hull", "--he"], ["-h", "bogus"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 0 and captured.out == USAGE and not captured.err
