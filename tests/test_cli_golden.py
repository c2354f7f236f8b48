"""The exact bytes of a fixed set of CLI commands: exit code, stdout and
stderr, as recorded in tests/cli_golden.json.  `python3 tools/golden.py
--write` writes that file; rewrite it only for an intended change of output.
Commands run from the repository root, which holds their `tests/data/` files."""

import importlib.util
import json
from pathlib import Path

import pytest

from exactcomb import cli, commands, verify

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "tests" / "cli_golden.json").read_text(encoding="utf-8"))
_spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)
# the argvs that name a command and its arguments, not a usage error
COMMANDS = [entry["argv"] for entry in GOLDEN if entry["argv"] not in golden.USAGE]


def test_golden_file_holds_the_tool_commands():
    # a command added to tools/golden.py without `--write` fails here
    assert [entry["argv"] for entry in GOLDEN] == golden.commands()


@pytest.mark.parametrize("entry", GOLDEN, ids=lambda entry: " ".join(entry["argv"]) or "(none)")
def test_cli_bytes(entry, monkeypatch):
    monkeypatch.delenv("EXACTCOMB_VERBOSE", raising=False)
    monkeypatch.chdir(ROOT)
    assert golden.record(entry["argv"]) == entry


def test_golden_covers_verify_and_every_coeff_family():
    assert {argv[1] for argv in COMMANDS if argv[0] == "coeff"} == set(cli.COEFF)
    assert all(["verify", suite] in COMMANDS for suite in verify.SUITES)
    assert ["verify"] in COMMANDS and ["verify", "--list"] in COMMANDS


def test_golden_covers_every_table_enumerate_poset_and_rsa_command():
    tables = {(argv[1], argv[-1]) for argv in COMMANDS
              if argv[0] == "table" and "--format" in argv}
    assert tables == {(family, fmt) for family in commands.TABLE for fmt in ("csv", "json")}
    assert {argv[1] for argv in COMMANDS if argv[0] == "enumerate"} == set(commands.ENUMERATE)
    assert any(argv[0] == "enumerate" and "--limit" in argv for argv in COMMANDS)
    assert {argv[1] for argv in COMMANDS if argv[0] == "poset"} == {"mobius", "invert", "sieve"}
    assert {argv[1] for argv in COMMANDS if argv[0] == "rsa"} == {"keygen", "encrypt", "decrypt"}
