"""Record the exact bytes of a fixed set of CLI commands in tests/cli_golden.json.

Each command runs in this process through ``exactcomb.cli.main``, with
``EXACTCOMB_VERBOSE`` unset.  For each one the file keeps the argv, the exit
code, and stdout and stderr: in full when short, else as a sha256 of the
UTF-8 text together with its length.  ``tests/test_cli_golden.py`` replays
the file, so a change of any of these bytes fails tier-1.  Standard library
only.

    python3 tools/golden.py            # print the records as JSON
    python3 tools/golden.py --write    # rewrite tests/cli_golden.json

Rewrite the file only for an intended change of output, and say which
commands changed and why.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "cli_golden.json"
FULL_LIMIT = 1000  # characters; longer streams are stored as a sha256

# one small command per `coeff` family
COEFF = [
    ["binomial", "40", "20"], ["multiset", "3", "4"], ["gentile", "2", "3", "3"],
    ["multinomial", "4", "2", "1", "1"], ["stirling1", "7", "3"],
    ["stirling2", "9", "4"], ["cycles", "6", "2"], ["bell", "25"],
    ["faa", "4", "0", "2"], ["cauchy", "5", "1", "2"], ["derangement", "30"],
    ["dnk", "6", "2"], ["surjections", "7", "3"], ["gergonne", "5", "2", "1"],
    ["touchard", "12"], ["menage", "6"], ["phi", "210"], ["mobius", "30"],
    ["birthday", "23"], ["graph", "digraph", "4", "3"],
]


def commands() -> list[list[str]]:
    """`verify`, its list, each suite, a repeated selection, an unknown
    suite, and the `coeff` commands above."""
    from exactcomb.verify import SUITES

    return [
        ["verify"],
        ["verify", "--list"],
        *(["verify", suite] for suite in SUITES),
        ["verify", "sieve", "errata", "core", "core"],
        ["verify", "not-a-suite"],
        *(["coeff", *args] for args in COEFF),
    ]


def _stream(text: str) -> dict:
    if len(text) <= FULL_LIMIT:
        return {"text": text}
    data = text.encode("utf-8")
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def record(argv: list[str]) -> dict:
    """The argv, exit code, stdout and stderr of one in-process run."""
    from exactcomb import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"argv": argv, "code": code,
            "stdout": _stream(out.getvalue()), "stderr": _stream(err.getvalue())}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help=f"rewrite {GOLDEN.relative_to(ROOT)}")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("EXACTCOMB_VERBOSE", None)
    text = json.dumps([record(argv) for argv in commands()], indent=1) + "\n"
    if args.write:
        GOLDEN.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
