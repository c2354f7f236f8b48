"""Record the exact bytes of a fixed set of CLI commands in tests/cli_golden.json.

Each command runs in this process through ``exactcomb.cli.main``, from the
repository root (file arguments are paths under ``tests/data/``), with
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
    ["graph", "graph", "200"],  # past CPython's 4300-digit limit on int-to-str
    # the single-number recursions at sizes that reach deep into each one
    ["derangement", "3000"], ["dnk", "2000", "7"], ["touchard", "1500"],
    ["menage", "1500"], ["bell", "400"],
    # the circular gergonne check, an empty selection, and both ends of birthday
    ["gergonne", "12", "4", "1", "--circular"], ["gergonne", "10", "0", "2"],
    ["birthday", "400", "--days", "365"], ["birthday", "30", "--days", "1000"],
    # k <= p answers by multiset_coeff, with no row of 2 * 10^7 + 1 entries
    ["gentile", "10000000", "2", "1"], ["gentile", "5", "3", "2"],
    # 120 rows built in one extension, and Miller's check of its top row's
    # 301-entry half, up to column 300, its middle
    ["gentile", "5", "120", "300"],
    # the mirror at a row's middle: n p = 10 has one middle column, 5; n p = 15
    # has two, 7 (the last stored) and 8 (read as 7)
    ["gentile", "2", "5", "5"], ["gentile", "3", "5", "7"], ["gentile", "3", "5", "8"],
    ["graph", "graph", "3", "-1"],  # refused: no graph has a negative edge count
    # past the factorial table's bound: a product tree, and 300! against math.factorial
    ["dnk", "300", "10"], ["multinomial", "300", "100", "200"],
    # the size the benchmark's one-shot coeff asks for: binomial's second
    # route is the Legendre product there, and no smaller entry reaches it
    ["binomial", "2000", "1000"],
]

TABLE_FAMILIES = ["binomial", "multiset", "gentile", "stirling1", "stirling2", "cycles"]
TABLE = [
    *([family, "--rows", "6", "--cols", "7", *(["--p", "2"] if family == "gentile" else []),
       "--format", fmt] for family in TABLE_FAMILIES for fmt in ("csv", "json")),
    ["gentile", "--rows", "3", "--cols", "3"],  # no --p
    ["binomial", "--rows", "0", "--cols", "3"],
    ["binomial", "--rows", "2001", "--cols", "3"],  # past the 2000-row cap
]

ENUMERATE = [
    ["functions", "3", "2"], ["functions", "3", "3", "--mode", "injective"],
    ["functions", "4", "2", "--mode", "surjective"],
    ["subsets", "4"], ["subsets", "5", "2"],
    # --limit below, at and above the count of 16
    ["subsets", "4", "--limit", "3"], ["subsets", "4", "--limit", "16"],
    ["subsets", "4", "--limit", "17"],
    ["multisets", "3", "3"], ["multisets", "12", "2", "--limit", "20"],
    ["partitions", "4"], ["partitions", "5", "--blocks", "2"],
    ["permutations", "4"], ["permutations", "5", "--cycles", "2"],
    ["permutations", "4", "--derangements"], ["permutations", "8"],
    ["gergonne", "7", "3", "1"], ["gergonne", "8", "3", "1", "--circular"],
    ["menage", "5"],
    # the sizes that the benchmark enumerates, where most of a filtered walk is pruned
    ["permutations", "8", "--derangements"], ["permutations", "8", "--cycles", "3"],
    ["partitions", "9", "--blocks", "4"], ["menage", "7"],
    ["gergonne", "24", "6", "2"], ["gergonne", "24", "8", "1", "--circular"],
    # cli-oneshot's partitions command, and the walks larger than the benchmark's
    ["partitions", "9"], ["permutations", "9", "--derangements"], ["menage", "8"],
    ["functions", "7", "6", "--mode", "surjective"],
    ["permutations", "11"],  # refused by the size guard
    # one empty object each
    ["subsets", "0"], ["functions", "0", "5"], ["partitions", "0"], ["permutations", "0"],
    # no object at all
    ["subsets", "3", "5"], ["functions", "2", "0"],
]

POSETS = ["tests/data/boolean3.json", "tests/data/divisors12.json",
          "tests/data/nontransitive.json"]
VALUES = {"tests/data/boolean3.json": "tests/data/boolean3_values.json",
          "tests/data/divisors12.json": "tests/data/divisors12_values.json",
          "tests/data/nontransitive.json": "tests/data/divisors12_values.json"}
POSET = [
    *(["mobius", poset, *fmt] for poset in POSETS for fmt in ([], ["--format", "json"])),
    *(["invert", poset, VALUES[poset], *dual] for poset in POSETS for dual in ([], ["--dual"])),
    *(["sieve", family] for family in ["tests/data/family.json", "tests/data/derangement4.json",
                                       "tests/data/nontransitive.json"]),
    # 18 sets of density 1/2 over 2000 elements, drawn by random.Random(31): most
    # of the 2^18 intersections are non-empty
    ["sieve", "tests/data/dense18.json"],
]

RSA = [
    ["keygen", "--p", "61", "--q", "53", "--e", "17"],
    ["encrypt", "--n", "3233", "--e", "17", "--m", "65"],
    ["decrypt", "--n", "3233", "--d", "2753", "--c", "2790"],
    ["keygen", "--p", "5", "--q", "5", "--e", "3"],  # refused: p = q
]

# usage errors, which argparse reports on stderr with exit code 2, in the
# same bytes on CPython 3.11, 3.12 and 3.13
USAGE = [
    # no command, or none that the root parser knows
    [], ["frobnicate"], ["-5"], ["--"], ["--", "coeff", "binomial", "5", "2"],
    ["frobnicate", "coeff"], [""],
    # an unknown option before the command
    ["--verbose", "coeff", "binomial", "5", "2"], ["--verbose", "table", "binomial"],
    # errors inside a command
    ["coeff", "catalan", "5"], ["table", "pascal", "--rows", "3", "--cols", "3"],
    ["table", "binomial", "--rows", "3"], ["rsa", "keygen", "--p", "61"],
    ["poset"], ["rsa", "sign"], ["enumerate", "menage", "4", "--limit"],
    # a prefix that fits two options
    ["enumerate", "permutations", "4", "--c", "2"],
]


def commands() -> list[list[str]]:
    """`verify`, its list, each suite, a repeated selection, an unknown
    suite, the `coeff`, `table`, `enumerate`, `poset` and `rsa` commands
    above, and the usage errors."""
    from exactcomb.verify import SUITES

    return [
        ["verify"],
        ["verify", "--list"],
        *(["verify", suite] for suite in SUITES),
        ["verify", "sieve", "errata", "core", "core"],
        ["verify", "not-a-suite"],
        *(["coeff", *args] for args in COEFF),
        *(["table", *args] for args in TABLE),
        *(["enumerate", *args] for args in ENUMERATE),
        *(["poset", *args] for args in POSET),
        *(["rsa", *args] for args in RSA),
        *USAGE,
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
    os.chdir(ROOT)
    os.environ.pop("EXACTCOMB_VERBOSE", None)
    text = json.dumps([record(argv) for argv in commands()], indent=1) + "\n"
    if args.write:
        GOLDEN.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
