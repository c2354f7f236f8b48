"""The exact bytes of a fixed set of CLI commands: exit code, stdout and
stderr, as recorded in tests/cli_golden.json.  `python3 tools/golden.py
--write` writes that file; rewrite it only for an intended change of output."""

import hashlib
import json
from pathlib import Path

import pytest

from exactcomb import cli, verify

GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "cli_golden.json").read_text(encoding="utf-8"))


def _as_stored(stored: dict, text: str) -> dict:
    """`text` in the form that `stored` has: in full, or as sha256 and length."""
    if "text" in stored:
        return {"text": text}
    data = text.encode("utf-8")
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


@pytest.mark.parametrize("entry", GOLDEN, ids=lambda entry: " ".join(entry["argv"]))
def test_cli_bytes(entry, capsys, monkeypatch):
    monkeypatch.delenv("EXACTCOMB_VERBOSE", raising=False)
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
