"""The exact bytes of a fixed set of CLI commands: exit code, stdout and
stderr, as recorded in tests/cli_golden.json.  `python3 tools/golden.py
--write` writes that file; rewrite it only for an intended change of output.
Commands run from the repository root, which holds their `tests/data/` files."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from exactcomb import cli, verify

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "tests" / "cli_golden.json").read_text(encoding="utf-8"))


def _as_stored(stored: dict, text: str) -> dict:
    """`text` in the form that `stored` has: in full, or as sha256 and length."""
    if "text" in stored:
        return {"text": text}
    data = text.encode("utf-8")
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def test_golden_file_holds_the_tool_commands():
    # a command added to tools/golden.py without `--write` fails here
    spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    assert [entry["argv"] for entry in GOLDEN] == golden.commands()


@pytest.mark.parametrize("entry", GOLDEN, ids=lambda entry: " ".join(entry["argv"]))
def test_cli_bytes(entry, capsys, monkeypatch):
    monkeypatch.delenv("EXACTCOMB_VERBOSE", raising=False)
    monkeypatch.chdir(ROOT)
    code = cli.main(entry["argv"])
    out, err = capsys.readouterr()
    assert code == entry["code"]
    assert _as_stored(entry["stdout"], out) == entry["stdout"]
    assert _as_stored(entry["stderr"], err) == entry["stderr"]


def test_golden_covers_verify_and_every_coeff_family():
    argvs = [entry["argv"] for entry in GOLDEN]
    assert {argv[1] for argv in argvs if argv[0] == "coeff"} == set(cli.COEFF)
    assert all(["verify", suite] in argvs for suite in verify.SUITES)
    assert ["verify"] in argvs and ["verify", "--list"] in argvs


def test_golden_covers_every_table_enumerate_poset_and_rsa_command():
    argvs = [entry["argv"] for entry in GOLDEN]
    tables = {(argv[1], argv[-1]) for argv in argvs if argv[0] == "table" and "--format" in argv}
    assert tables == {(family, fmt) for family in cli.TABLE for fmt in ("csv", "json")}
    assert {argv[1] for argv in argvs if argv[0] == "enumerate"} == set(cli.ENUMERATE)
    assert any(argv[0] == "enumerate" and "--limit" in argv for argv in argvs)
    assert {argv[1] for argv in argvs if argv[0] == "poset"} == {"mobius", "invert", "sieve"}
    assert {argv[1] for argv in argvs if argv[0] == "rsa"} == {"keygen", "encrypt", "decrypt"}
