"""The parser builds only the named command's arguments, and nothing shows it.

`run` adds arguments to the subparser of the command named by the first
token of argv that is not an option, and to no other.  Every argv of the
golden corpus, and each edge case below, must give the same exit code,
stdout and stderr as with every command's arguments built.  Both sides run
in this process, so no argparse text is pinned and the comparison holds on
each Python version's argparse.
"""

import json
from pathlib import Path

import pytest

from exactcomb import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = [entry["argv"] for entry in json.loads((ROOT / "tests" / "cli_golden.json").read_text())]
EDGES = [
    # help at the root, on each command and on two nested subcommands
    ["-h"], *([command, "-h"] for command in cli.COMMANDS),
    ["poset", "mobius", "-h"], ["rsa", "keygen", "-h"], ["coeff", "binomial", "-h"],
    ["-h", "coeff"],
    # an option prefix; the usage errors are in the golden corpus
    ["coeff", "gergonne", "12", "4", "1", "--circ"], ["table", "binomial", "--r", "2", "--c", "2"],
]


@pytest.mark.parametrize("argv", GOLDEN + EDGES, ids=lambda argv: " ".join(argv) or "(none)")
def test_a_command_runs_as_with_every_command_built(argv, monkeypatch, capsys):
    monkeypatch.delenv("EXACTCOMB_VERBOSE", raising=False)
    monkeypatch.chdir(ROOT)  # the corpus names its data files relative to the repository

    def outcome():
        lines = []
        result = cli.run(argv, lines.extend)
        return result, lines, capsys.readouterr()

    lazy = outcome()
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda built: build(cli.COMMANDS))
    assert outcome() == lazy


def _arguments(parser):
    """Each subparser's name and the destinations of its arguments."""
    commands = parser._subparsers._group_actions[0].choices
    return {name: [action.dest for action in command._actions if action.dest != "help"]
            for name, command in commands.items()}


def test_only_the_named_command_gets_arguments(monkeypatch):
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda names: built.append(names) or build(names))
    cli.run(["--verbose", "coeff", "binomial", "5", "2"], list)
    cli.run(["-h"], list)
    assert built == [{"coeff"}, {None}]
    arguments = _arguments(build({"coeff"}))
    assert list(arguments) == list(cli.COMMANDS)
    assert arguments["coeff"] == ["family", "args", "circular", "days"]
    assert not any(arguments[name] for name in cli.COMMANDS if name != "coeff")
    assert arguments == {**_arguments(build(cli.COMMANDS)),
                         **{name: [] for name in cli.COMMANDS if name != "coeff"}}
