"""The command line against the full parser it replaced.

`cli.main` builds only the subparser of the command that leads its
arguments, under the full usage line, and the full parser otherwise.
`_full_parser` is the former `cli._build_parser` body, which built all nine
subparsers on every call; on a fixed list of arguments, `main` must give the
exit code, standard output and standard error that parser gives with the
same handler.  The entry point `python -m sodatlas.cli` reads its arguments
from `sys.argv` and must give the bytes `main` gives in process.
"""

import argparse
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sodatlas
from sodatlas import cli
from sodatlas.errors import InputError, SodatlasError
from sodatlas.mutation import VERDICT_OK

SRC = str(Path(sodatlas.__file__).resolve().parents[1])
COMMANDS = ("classes", "sod", "mutate", "verify-link", "group", "atoms", "invariant", "profile", "selftest")


def _full_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sodatlas",
        description="exact lattice, mutation and catalog computations for rational surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classes", help="enumerate divisor classes of a fixed square")
    p.add_argument("--degree", type=cli._int_arg, required=True, help="degree of the model, 1..9 (8 is the quadric)")
    p.add_argument("--r", type=cli._int_arg, required=True, help="self-intersection, -2..1")
    p.set_defaults(handler=cli._cmd_classes)

    p = sub.add_parser("sod", help="print the standard collection of a surface file")
    p.add_argument("--surface", required=True, metavar="FILE")
    p.set_defaults(handler=cli._cmd_sod)

    p = sub.add_parser("mutate", help="replay a move script on a collection file")
    p.add_argument("--collection", required=True, metavar="FILE")
    p.add_argument("--script", required=True, metavar="FILE")
    p.set_defaults(handler=cli._cmd_mutate)

    p = sub.add_parser("verify-link", help="replay stored catalog scripts")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--id", help="one catalog id")
    group.add_argument("--all", action="store_true", help="every catalog id, in order")
    p.set_defaults(handler=cli._cmd_verify_link)

    p = sub.add_parser("group", help="analyse a lattice group action file")
    p.add_argument("--action", required=True, metavar="FILE")
    p.set_defaults(handler=cli._cmd_group)

    p = sub.add_parser("atoms", help="atom multiset of an equivariant contraction")
    p.add_argument("--surface", required=True, metavar="FILE")
    p.add_argument("--action", required=True, metavar="FILE")
    p.add_argument("--contraction", required=True, metavar="FILE")
    p.set_defaults(handler=cli._cmd_atoms)

    p = sub.add_parser("invariant", help="Burnside element of a blow-up/down step list")
    p.add_argument("--steps", required=True, metavar="FILE")
    p.set_defaults(handler=cli._cmd_invariant)

    p = sub.add_parser("profile", help="arithmetic checks on an atom profile file")
    p.add_argument("--file", required=True, metavar="FILE")
    p.set_defaults(handler=cli._cmd_profile)

    p = sub.add_parser("selftest", help="run the embedded acceptance suite")
    p.set_defaults(handler=cli._cmd_selftest)

    return parser


def _full_main(argv) -> int:
    """The former `cli.main`: the full parser, then the same handler."""
    args = _full_parser().parse_args(argv)
    try:
        return args.handler(args)
    except InputError as exc:
        sys.stdout.flush()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SodatlasError as exc:
        sys.stdout.flush()
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _outcome(run, argv) -> tuple:
    """(exit code, standard output, standard error) of `run(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


MISSING = "/nonexistent/input.cfg"

ARGVS = [
    *([command, "-h"] for command in COMMANDS),
    # no command, help, the end of options and unknown commands
    [],
    ["-h"],
    ["--help"],
    ["--"],
    ["--", "verify-link", "--id", "I-9-8"],
    ["bogus"],
    ["verify"],
    ["-h", "verify-link"],
    ["--bogus", "verify-link"],
    # verify-link: runs, missing, doubled, unknown and extra arguments
    ["verify-link", "--id", "I-9-8"],
    ["verify-link", "--id=I-9-8"],
    ["verify-link", "--id=X"],
    ["verify-link", "--i", "I-9-8"],
    ["verify-link"],
    ["verify-link", "--id"],
    ["verify-link", "--id", "I-9-8", "--id", "I-9-5"],
    ["verify-link", "--id", "I-9-8", "--all"],
    ["verify-link", "--id", "I-9-8", "extra"],
    ["verify-link", "--bogus"],
    ["verify-link", "--", "--id", "I-9-8"],
    ["verify-link", "--all", "-h"],
    # classes
    ["classes", "--degree", "5", "--r", "-1"],
    ["classes", "--degree=5", "--r=1", "--r", "0"],
    ["classes", "--degree", "5"],
    ["classes", "--degree", "x", "--r", "1"],
    ["classes", "--degree", "12", "--r", "0"],
    ["classes", "--degree", "5", "--r", "-1", "--bogus"],
    # the file commands, each with a missing flag, an unreadable file or an extra argument
    ["sod"],
    ["sod", "--surface", MISSING],
    ["mutate", "--collection", MISSING],
    ["group", "--action", MISSING, "extra"],
    ["atoms", "--surface", MISSING, "--action", MISSING],
    ["invariant", "--steps"],
    ["invariant", "--steps", MISSING],
    ["profile", "--file", MISSING, "--file", MISSING],
    ["selftest", "extra"],
]


@pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: " ".join(argv) or "<empty>")
def test_main_matches_the_full_parser(argv):
    assert _outcome(cli.main, argv) == _outcome(_full_main, argv)


def _record_subparsers(monkeypatch) -> list[str]:
    """From now on, each command whose subparser is added is appended to
    the returned list."""
    added = []
    original = argparse._SubParsersAction.add_parser

    def add_parser(self, name, **kwargs):
        added.append(name)
        return original(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", add_parser)
    return added


def test_verify_link_builds_one_subparser(monkeypatch):
    added = _record_subparsers(monkeypatch)
    _outcome(cli.main, ["verify-link", "--id", "I-9-8"])
    assert added == ["verify-link"]


def test_arguments_from_sys_argv_build_one_subparser(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["sodatlas", "verify-link", "--id", "I-9-8"])
    added = _record_subparsers(monkeypatch)
    assert cli.main() == 0
    assert added == ["verify-link"]


@pytest.mark.parametrize("argv", [[], ["-h"], ["--"], ["bogus"]])
def test_no_command_builds_every_subparser(monkeypatch, argv):
    added = _record_subparsers(monkeypatch)
    _outcome(cli.main, argv)
    assert added == list(COMMANDS)


def test_build_parser_without_arguments_is_the_full_parser():
    assert cli._build_parser().format_help() == _full_parser().format_help()


def _entry_point(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "sodatlas.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_entry_point_reads_its_arguments_from_sys_argv():
    argv = ["verify-link", "--id", "I-9-8"]
    outcome = _entry_point(*argv)
    assert outcome == _outcome(cli.main, argv)
    assert outcome[0] == 0 and outcome[1].endswith(f'"verdict": "{VERDICT_OK}"}}\n')


def test_entry_point_without_arguments_prints_the_full_usage():
    code, out, err = _entry_point()
    assert (code, out, err) == _outcome(cli.main, [])
    assert code == 2 and out == ""
    assert err.startswith(_full_parser().format_usage())
    assert err.endswith("error: the following arguments are required: command\n")
