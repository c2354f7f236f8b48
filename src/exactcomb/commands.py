"""The `table`, `enumerate`, `verify`, `poset` and `rsa` commands: the
arguments each adds to its subparser, its family tables and its handler.

`cli` imports this module only when the command line names one of these
commands, to add that command's arguments, so a `coeff` call never
compiles it.  A handler takes the parsed command line and returns its exit
code and its lines, as `cli._cmd_coeff` does.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, Iterable, Optional

from .cli import COEFF, Output, Parser, _gergonne_query, _ints, _number_theory
from .exact_core import format_rational, guard, parse_int, parse_rational

# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def _matrix_rows(name: str, *options: str) -> Callable:
    """Rows by the RecursiveMatrix route: the matrix is the recursive_matrix
    function `name` called with the values of the named options, then the
    order."""
    def rows(family: str, args: argparse.Namespace) -> list[list[int]]:
        from . import recursive_matrix

        for option in options:
            if getattr(args, option) is None:
                raise ValueError(f"{family} tables need --{option}")
        build = getattr(recursive_matrix, name)
        matrix = build(*(getattr(args, o) for o in options), max(args.cols - 1, 0))
        return matrix.table(args.rows, args.cols)
    return rows


def _coeff_rows(family: str, args: argparse.Namespace) -> Iterable[list[int]]:
    """Rows entry by entry, from the family's function in the coeff table."""
    fn = COEFF[family][1]
    return ([fn(n, k) for k in range(args.cols)] for n in range(args.rows))


TABLE: dict[str, Callable[[str, argparse.Namespace], Iterable[list[int]]]] = {
    "binomial": _matrix_rows("binomial_matrix"),
    "multiset": _matrix_rows("multiset_matrix"),
    "gentile": _matrix_rows("gentile_matrix", "p"),
    "stirling1": _coeff_rows,
    "stirling2": _coeff_rows,
    "cycles": _coeff_rows,
}


def _cmd_table(args: argparse.Namespace) -> Output:
    if args.rows < 1 or args.cols < 1:
        raise ValueError("--rows and --cols must be >= 1")
    guard(args.rows <= 2000 and args.cols <= 2000,
          "table dumps are capped at 2000 rows/columns")
    table = TABLE[args.family](args.family, args)
    if args.format == "json":
        import json

        # the bytes of json.dumps of the whole table, one row at a time
        rows = ", ".join(json.dumps([str(v) for v in row]) for row in table)
        return 0, [f'{{"family": {json.dumps(args.family)}, "rows": [{rows}]}}']
    return 0, (",".join(str(v) for v in row) for row in table)


def _table_arguments(p_table: argparse.ArgumentParser) -> None:
    p_table.add_argument("family", choices=list(TABLE))
    p_table.add_argument("--rows", type=parse_int, required=True)
    p_table.add_argument("--cols", type=parse_int, required=True)
    p_table.add_argument("--p", type=parse_int, default=None,
                         help="occupancy bound (gentile)")
    p_table.add_argument("--format", choices=["csv", "json"], default="csv")
    p_table.set_defaults(fn=_cmd_table)


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def _words(name: str) -> Callable:
    """The enumeration function `name` with each object it yields written
    as a word."""
    def lines(*a):
        from . import enumeration as en

        return map(en.as_word, getattr(en, name)(*a))
    return lines


def _subset_args(family: str, args: argparse.Namespace) -> list:
    return _ints(1 if len(args.args) == 1 else 2)(family, args)


def _multiset_lines(n: int, k: int):
    from . import enumeration as en

    return (f"{en.multiset_word(r)} {r}" for r in en.enumerate_multisets(n, k))


class _BlockText(dict):
    """Each block's text, "{1,3}", formatted the first time it is asked for."""

    def __missing__(self, block: tuple[int, ...]) -> str:
        text = self[block] = "{" + ",".join(map(str, block)) + "}"
        return text


def _partition_lines(n: int, k: Optional[int]):
    from . import enumeration as en

    text = _BlockText()  # at most 2^n - 1 blocks, held only by this command
    return ("|".join(map(text.__getitem__, part)) for part in en.enumerate_set_partitions(n, k))


# the functions here yield the output lines
ENUMERATE: dict[str, tuple[Parser, Callable]] = {
    "functions": (_ints(2, "mode"), _words("enumerate_functions")),
    "subsets": (_subset_args, _words("enumerate_subsets")),
    "multisets": (_ints(2), _multiset_lines),
    "partitions": (_ints(1, "blocks"), _partition_lines),
    "permutations": (_ints(1, "cycles", "derangements"), _words("enumerate_permutations")),
    "gergonne": (_gergonne_query, _words("enumerate_gergonne")),
    "menage": (_ints(1), _words("enumerate_menage")),
}


def _cmd_enumerate(args: argparse.Namespace) -> Output:
    if args.limit < 0:
        raise ValueError("--limit must be >= 0")
    parse, lines_of = ENUMERATE[args.family]
    lines = lines_of(*parse(args.family, args))
    if args.limit:  # the first line past the limit is written as "..."
        lines = (line if i < args.limit else "..."
                 for i, line in zip(range(args.limit + 1), lines))
    return 0, lines


def _enumerate_arguments(p_enum: argparse.ArgumentParser) -> None:
    p_enum.add_argument("family", choices=list(ENUMERATE))
    p_enum.add_argument("args", nargs="*")
    p_enum.add_argument("--mode", choices=["all", "injective", "surjective"],
                        default="all", help="filter (functions)")
    p_enum.add_argument("--blocks", type=parse_int, default=None, help="block count (partitions)")
    p_enum.add_argument("--cycles", type=parse_int, default=None, help="cycle count (permutations)")
    p_enum.add_argument("--derangements", action="store_true",
                        help="fixed-point-free only (permutations)")
    p_enum.add_argument("--circular", action="store_true", help="round table (gergonne)")
    p_enum.add_argument("--limit", type=parse_int, default=0, help="cap output lines (0 = all)")
    p_enum.set_defaults(fn=_cmd_enumerate)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> Output:
    from .verify import SUITES, run_suites

    if args.list:
        return 0, SUITES
    started = time.perf_counter()
    results = run_suites(args.suites or ["all"])
    if os.environ.get("EXACTCOMB_VERBOSE"):
        print(f"ran {len(results)} checks in "
              f"{time.perf_counter() - started:.2f}s", file=sys.stderr)
    lines = []
    failures = 0
    for suite, check in results:
        tag = "PASS" if check.ok else "FAIL"
        failures += not check.ok
        detail = f"  [{check.detail}]" if check.detail else ""
        lines.append(f"{tag}  {suite}: {check.name}{detail}")
    lines.append(
        f"{len(results) - failures}/{len(results)} checks passed"
        + (f", {failures} FAILED" if failures else "")
    )
    return 1 if failures else 0, lines


def _verify_arguments(p_verify: argparse.ArgumentParser) -> None:
    p_verify.add_argument("suites", nargs="*", help="suite names (default: all)")
    p_verify.add_argument("--list", action="store_true", help="list suite names")
    p_verify.set_defaults(fn=_cmd_verify)


# ---------------------------------------------------------------------------
# poset
# ---------------------------------------------------------------------------


def _load_poset(path: str):
    """The poset in a JSON file; a relation that is no partial order is an
    input error naming its witness."""
    from .poset_mobius import FinitePoset, PosetError

    with open(path, encoding="utf-8") as fh:
        try:
            return FinitePoset.from_json(fh.read())
        except PosetError as exc:
            raise ValueError(f"not a partial order: {exc} (witness {exc.witness})") from None


def _cmd_poset_mobius(args: argparse.Namespace) -> Output:
    import json

    from . import poset_mobius as pm

    # x in element order, the y of each x in linear-extension order
    mu = pm.mobius(_load_poset(args.poset)).items()
    if args.format == "json":
        return 0, [json.dumps({"mobius": [[x, y, str(v)] for (x, y), v in mu]})]
    return 0, (f"{x},{y},{v}" for (x, y), v in mu)


def _cmd_poset_invert(args: argparse.Namespace) -> Output:
    import json

    from . import poset_mobius as pm

    P = _load_poset(args.poset)
    with open(args.values, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("expected a JSON object of values")
    g = {}
    for e in P.elements:
        key = str(e)
        if key not in raw:
            raise ValueError(f"missing value for element {key!r}")
        g[e] = parse_rational(str(raw[key]))
    f = pm.invert_dual(P, g) if args.dual else pm.invert(P, g)
    out = {str(e): format_rational(f[e]) for e in P.elements}
    return 0, [json.dumps(out)]


def _cmd_poset_sieve(args: argparse.Namespace) -> Output:
    import json

    from . import poset_mobius as pm

    with open(args.family, encoding="utf-8") as fh:
        fam = pm.SubsetFamily.from_json(fh.read())
    numbers, exactly = pm.sieve_counts(fam)
    return 0, [json.dumps({"sylvester": [str(v) for v in numbers],
                           "survivors": str(exactly[0]), "exactly": [str(v) for v in exactly]})]


def _poset_arguments(p_poset: argparse.ArgumentParser) -> None:
    poset_sub = p_poset.add_subparsers(dest="subcmd", required=True)
    pp = poset_sub.add_parser("mobius", help="Mobius function of a poset JSON file")
    pp.add_argument("poset")
    pp.add_argument("--format", choices=["csv", "json"], default="csv")
    pp.set_defaults(fn=_cmd_poset_mobius)
    pi = poset_sub.add_parser("invert", help="Mobius inversion of a value table")
    pi.add_argument("poset")
    pi.add_argument("values", help='JSON file {"element": "p/q", ...}')
    pi.add_argument("--dual", action="store_true", help="invert on the reversed order")
    pi.set_defaults(fn=_cmd_poset_invert)
    ps = poset_sub.add_parser("sieve", help="Sylvester/Jordan counts of a family")
    ps.add_argument("family", help='JSON file {"universe": N, "sets": [[...], ...]}')
    ps.set_defaults(fn=_cmd_poset_sieve)


# ---------------------------------------------------------------------------
# rsa
# ---------------------------------------------------------------------------


def _keygen_json(p: int, q: int, e: int) -> str:
    import json

    from . import number_theory as nt

    key = nt.rsa_keygen(p, q, e)
    return json.dumps({**{slot: str(getattr(key, slot)) for slot in key.__slots__},
                       "note": "toy parameters, no cryptographic security"})


# each subcommand: its required integer options, and the function they go to
RSA: dict[str, tuple[tuple[str, ...], Callable]] = {
    "keygen": (("p", "q", "e"), _keygen_json),
    "encrypt": (("n", "e", "m"), _number_theory("rsa_encrypt")),
    "decrypt": (("n", "d", "c"), _number_theory("rsa_decrypt")),
}


def _cmd_rsa(args: argparse.Namespace) -> Output:
    options, fn = RSA[args.subcmd]
    return 0, [str(fn(*(getattr(args, o) for o in options)))]


def _rsa_arguments(p_rsa: argparse.ArgumentParser) -> None:
    rsa_sub = p_rsa.add_subparsers(dest="subcmd", required=True)
    for name, (options, _) in RSA.items():
        pr = rsa_sub.add_parser(name)
        for option in options:
            pr.add_argument(f"--{option}", type=parse_int, required=True)
        pr.set_defaults(fn=_cmd_rsa)


# each command of this module: the function that adds its arguments
ARGUMENTS: dict[str, Callable[[argparse.ArgumentParser], None]] = {
    "table": _table_arguments,
    "enumerate": _enumerate_arguments,
    "verify": _verify_arguments,
    "poset": _poset_arguments,
    "rsa": _rsa_arguments,
}
