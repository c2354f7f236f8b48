"""Command-line surface: exact coefficients, table dumps, enumeration
dumps, poset/sieve tools, toy RSA, and the self-check suites.

All commands are one-shot; numbers are printed as exact decimal strings
(rationals as "p/q"), and JSON output keeps integers as strings so that
consumers cannot silently lose precision.  Exit codes: 0 ok, 1
verification failure or internal inconsistency, 2 usage or input error
or a request too large to finish (refused by a size guard, or a
`MemoryError` while it ran).

Each command imports only the modules it runs: `coeff` and `rsa` need
`counting`, `number_theory` and `exact_core`, loaded here; `table` loads
`recursive_matrix` for its matrix families, `enumerate` loads
`enumeration`, `poset` loads `poset_mobius` and `verify` loads `verify`,
each when the command runs, and only the commands that read or print
JSON load `json`.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, NamedTuple, Optional, Sequence

from . import counting as ct
from . import number_theory as nt
from .exact_core import format_rational, guard, parse_int, parse_rational


class CommandResult(NamedTuple):
    code: int  # 0 ok, 1 verification failure or inconsistency, 2 usage error or too large
    payload: str  # on stderr when it starts with "error: ", else on stdout


# Each family of `coeff` and `enumerate` is a pair (argument parser,
# library function).  The parser turns the family name and the parsed
# command line into the positional arguments of the function.
Parser = Callable[[str, argparse.Namespace], Sequence]


def _ints(count: int, *options: str) -> Parser:
    """`count` integer arguments, then the values of the named options."""
    def parse(family: str, args: argparse.Namespace) -> list:
        if len(args.args) != count:
            raise ValueError(
                f"{family} expects {count} integer argument(s), got {len(args.args)}"
            )
        return [*map(parse_int, args.args), *(getattr(args, o) for o in options)]
    return parse


def _n_and_list(usage: str) -> Parser:
    """n followed by one or more integers, as (n, [h1, h2, ...])."""
    def parse(family: str, args: argparse.Namespace) -> tuple:
        if not args.args:
            raise ValueError(usage)
        n, *rest = map(parse_int, args.args)
        return n, rest
    return parse


def _graph_args(family: str, args: argparse.Namespace) -> list:
    if len(args.args) not in (2, 3):
        raise ValueError(f"{family} expects: kind n [k]")
    kind, *numbers = args.args
    return [kind, *map(parse_int, numbers)]


_TYPE_VECTOR = _n_and_list("expected: n nu1 [nu2 ...]")


def _gergonne_query(family: str, args: argparse.Namespace) -> list:
    return [ct.GergonneQuery(*_ints(3, "circular")(family, args))]


# ---------------------------------------------------------------------------
# coeff
# ---------------------------------------------------------------------------

COEFF: dict[str, tuple[Parser, Callable]] = {
    "binomial": (_ints(2), ct.binomial),
    "multiset": (_ints(2), ct.multiset_coeff),
    "gentile": (_ints(3), ct.gentile_coeff),
    "multinomial": (_n_and_list("multinomial expects: n h1 [h2 ...]"), ct.multinomial),
    "stirling1": (_ints(2), ct.stirling1_signed),
    "stirling2": (_ints(2), ct.stirling2),
    "cycles": (_ints(2), ct.cycle_count),
    "bell": (_ints(1), ct.bell),
    "faa": (_TYPE_VECTOR, lambda n, nu: ct.faa_di_bruno(ct.TypeVector(n, nu))),
    "cauchy": (_TYPE_VECTOR, lambda n, nu: ct.cauchy_count(ct.TypeVector(n, nu))),
    "derangement": (_ints(1), ct.derangement),
    "dnk": (_ints(2), ct.derangement_fixed),
    "surjections": (_ints(2), ct.surjection_count),
    "gergonne": (_gergonne_query, ct.gergonne),
    "touchard": (_ints(1), ct.touchard),
    "menage": (_ints(1), ct.menage_count),
    "phi": (_ints(1), nt.euler_phi),
    "mobius": (_ints(1), nt.mobius_classical),
    "birthday": (_ints(1, "days"), ct.birthday_probability),
    "graph": (_graph_args, ct.graph_count),
}


def _show(value) -> str:
    """An int as a decimal, a Fraction as "p/q", and gergonne's
    (count, probability) pair as both, separated by a space."""
    if isinstance(value, tuple):
        return " ".join(map(format_rational, value))
    return format_rational(value)


def _cmd_coeff(args: argparse.Namespace) -> CommandResult:
    parse, fn = COEFF[args.family]
    return CommandResult(0, _show(fn(*parse(args.family, args))))


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


def _coeff_rows(family: str, args: argparse.Namespace) -> list[list[int]]:
    """Rows entry by entry, from the family's function in the coeff table."""
    fn = COEFF[family][1]
    return [[fn(n, k) for k in range(args.cols)] for n in range(args.rows)]


TABLE: dict[str, Callable[[str, argparse.Namespace], list[list[int]]]] = {
    "binomial": _matrix_rows("binomial_matrix"),
    "multiset": _matrix_rows("multiset_matrix"),
    "gentile": _matrix_rows("gentile_matrix", "p"),
    "stirling1": _coeff_rows,
    "stirling2": _coeff_rows,
    "cycles": _coeff_rows,
}


def _cmd_table(args: argparse.Namespace) -> CommandResult:
    if args.rows < 1 or args.cols < 1:
        raise ValueError("--rows and --cols must be >= 1")
    guard(args.rows <= 2000 and args.cols <= 2000,
          "table dumps are capped at 2000 rows/columns")
    table = TABLE[args.family](args.family, args)
    if args.format == "json":
        import json

        payload = json.dumps(
            {"family": args.family, "rows": [[str(v) for v in row] for row in table]}
        )
    else:
        payload = "\n".join(",".join(str(v) for v in row) for row in table)
    return CommandResult(0, payload)


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


def _partition_lines(n: int, k: Optional[int]):
    from . import enumeration as en

    return (
        "|".join("{" + ",".join(map(str, b)) + "}" for b in part)
        for part in en.enumerate_set_partitions(n, k)
    )


def _permutation_lines(n: int, cycles: Optional[int], derangements: bool):
    from . import enumeration as en

    return map(en.as_word, en.enumerate_permutations(
        n, cycles=cycles, derangement_only=derangements))


# the functions here yield the output lines
ENUMERATE: dict[str, tuple[Parser, Callable]] = {
    "functions": (_ints(2, "mode"), _words("enumerate_functions")),
    "subsets": (_subset_args, _words("enumerate_subsets")),
    "multisets": (_ints(2), _multiset_lines),
    "partitions": (_ints(1, "blocks"), _partition_lines),
    "permutations": (_ints(1, "cycles", "derangements"), _permutation_lines),
    "gergonne": (_gergonne_query, _words("enumerate_gergonne")),
    "menage": (_ints(1), _words("enumerate_menage")),
}


def _cmd_enumerate(args: argparse.Namespace) -> CommandResult:
    if args.limit < 0:
        raise ValueError("--limit must be >= 0")
    parse, lines_of = ENUMERATE[args.family]
    lines: list[str] = []
    for i, line in enumerate(lines_of(*parse(args.family, args))):
        if args.limit and i >= args.limit:
            lines.append("...")
            break
        lines.append(line)
    return CommandResult(0, "\n".join(lines))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args: argparse.Namespace) -> CommandResult:
    from .verify import SUITES, run_suites

    if args.list:
        return CommandResult(0, "\n".join(SUITES))
    verbose = bool(os.environ.get("EXACTCOMB_VERBOSE"))
    started = time.perf_counter()
    try:
        results = run_suites(args.suites or ["all"])
    except KeyError as exc:  # only a name: a check that raises is a FAIL line
        raise ValueError(
            f"unknown suite {exc.args[0]!r}; available: all, {', '.join(SUITES)}"
        ) from None
    if verbose:
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
    return CommandResult(1 if failures else 0, "\n".join(lines))


# ---------------------------------------------------------------------------
# poset
# ---------------------------------------------------------------------------


def _load_poset(path: str):
    """The poset in a JSON file."""
    from .poset_mobius import FinitePoset

    with open(path, encoding="utf-8") as fh:
        return FinitePoset.from_json(fh.read())


def _cmd_poset_mobius(args: argparse.Namespace) -> CommandResult:
    import json

    from . import poset_mobius as pm

    P = _load_poset(args.poset)
    # x in element order, the y of each x in linear-extension order
    triples = [[x, y, str(v)] for (x, y), v in pm.mobius(P).items()]
    if args.format == "json":
        return CommandResult(0, json.dumps({"mobius": triples}))
    return CommandResult(
        0, "\n".join(f"{x},{y},{v}" for x, y, v in triples)
    )


def _cmd_poset_invert(args: argparse.Namespace) -> CommandResult:
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
    return CommandResult(0, json.dumps(out))


def _cmd_poset_sieve(args: argparse.Namespace) -> CommandResult:
    import json

    from . import poset_mobius as pm

    with open(args.family, encoding="utf-8") as fh:
        fam = pm.SubsetFamily.from_json(fh.read())
    numbers, exactly = pm.sieve_counts(fam)
    payload = json.dumps(
        {
            "sylvester": [str(v) for v in numbers],
            "survivors": str(exactly[0]),
            "exactly": [str(v) for v in exactly],
        }
    )
    return CommandResult(0, payload)


# ---------------------------------------------------------------------------
# rsa
# ---------------------------------------------------------------------------


def _cmd_rsa_keygen(args: argparse.Namespace) -> CommandResult:
    import json

    key = nt.rsa_keygen(args.p, args.q, args.e)
    payload = json.dumps(
        {
            "p": str(key.p),
            "q": str(key.q),
            "n": str(key.n),
            "phi": str(key.phi),
            "e": str(key.e),
            "d": str(key.d),
            "note": "toy parameters, no cryptographic security",
        }
    )
    return CommandResult(0, payload)


def _cmd_rsa_encrypt(args: argparse.Namespace) -> CommandResult:
    return CommandResult(0, str(nt.rsa_encrypt(args.n, args.e, args.m)))


def _cmd_rsa_decrypt(args: argparse.Namespace) -> CommandResult:
    return CommandResult(0, str(nt.rsa_decrypt(args.n, args.d, args.c)))


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactcomb",
        description="Exact combinatorial coefficients, tables, enumerations, "
        "poset inversion, sieves, and self-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_coeff = sub.add_parser("coeff", help="print one exact coefficient")
    p_coeff.add_argument("family", choices=list(COEFF))
    p_coeff.add_argument("args", nargs="*")
    p_coeff.add_argument("--circular", action="store_true",
                         help="circular variant (gergonne)")
    p_coeff.add_argument("--days", type=int, default=365,
                         help="year length (birthday)")
    p_coeff.set_defaults(fn=_cmd_coeff)

    p_table = sub.add_parser("table", help="dump a coefficient table")
    p_table.add_argument("family", choices=list(TABLE))
    p_table.add_argument("--rows", type=int, required=True)
    p_table.add_argument("--cols", type=int, required=True)
    p_table.add_argument("--p", type=int, default=None,
                         help="occupancy bound (gentile)")
    p_table.add_argument("--format", choices=["csv", "json"], default="csv")
    p_table.set_defaults(fn=_cmd_table)

    p_enum = sub.add_parser("enumerate", help="dump a family, one object per line")
    p_enum.add_argument("family", choices=list(ENUMERATE))
    p_enum.add_argument("args", nargs="*")
    p_enum.add_argument("--mode", choices=["all", "injective", "surjective"],
                        default="all", help="filter (functions)")
    p_enum.add_argument("--blocks", type=int, default=None, help="block count (partitions)")
    p_enum.add_argument("--cycles", type=int, default=None, help="cycle count (permutations)")
    p_enum.add_argument("--derangements", action="store_true",
                        help="fixed-point-free only (permutations)")
    p_enum.add_argument("--circular", action="store_true", help="round table (gergonne)")
    p_enum.add_argument("--limit", type=int, default=0, help="cap output lines (0 = all)")
    p_enum.set_defaults(fn=_cmd_enumerate)

    p_verify = sub.add_parser("verify", help="run self-check suites")
    p_verify.add_argument("suites", nargs="*", help="suite names (default: all)")
    p_verify.add_argument("--list", action="store_true", help="list suite names")
    p_verify.set_defaults(fn=_cmd_verify)

    p_poset = sub.add_parser("poset", help="Mobius tables, inversion, sieve")
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

    p_rsa = sub.add_parser("rsa", help="toy RSA (no security!)")
    rsa_sub = p_rsa.add_subparsers(dest="subcmd", required=True)
    rk = rsa_sub.add_parser("keygen")
    rk.add_argument("--p", type=int, required=True)
    rk.add_argument("--q", type=int, required=True)
    rk.add_argument("--e", type=int, required=True)
    rk.set_defaults(fn=_cmd_rsa_keygen)
    re_ = rsa_sub.add_parser("encrypt")
    re_.add_argument("--n", type=int, required=True)
    re_.add_argument("--e", type=int, required=True)
    re_.add_argument("--m", type=int, required=True)
    re_.set_defaults(fn=_cmd_rsa_encrypt)
    rd = rsa_sub.add_parser("decrypt")
    rd.add_argument("--n", type=int, required=True)
    rd.add_argument("--d", type=int, required=True)
    rd.add_argument("--c", type=int, required=True)
    rd.set_defaults(fn=_cmd_rsa_decrypt)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> CommandResult:
    """Parse and execute; usage and input errors come back as code 2, as
    does a request that ran out of memory (too large, like one a size guard
    refuses), and a disagreement between two routes (ArithmeticError) as
    code 1."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return CommandResult(2 if exc.code else 0, "")
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError) as exc:  # json.JSONDecodeError included
        # a PosetError can only come from a command that loaded poset_mobius
        pm = sys.modules.get(f"{__package__}.poset_mobius")
        if pm is not None and isinstance(exc, pm.PosetError):
            return CommandResult(
                2, f"error: not a partial order: {exc} (witness {exc.witness})")
        return CommandResult(2, f"error: {exc}")
    except ArithmeticError as exc:
        return CommandResult(1, f"error: {exc}")
    except MemoryError:
        return CommandResult(2, f"error: out of memory: {args.command} needs more "
                                "memory than this process could allocate")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run and print.  Exact answers may run past CPython's limit on int-to-str
    conversion (4300 digits), so that limit is lifted while the command runs."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        result = run(argv)
    finally:
        sys.set_int_max_str_digits(limit)
    if result.payload:
        stream = sys.stderr if result.payload.startswith("error: ") else sys.stdout
        print(result.payload, file=stream)
    return result.code


if __name__ == "__main__":
    sys.exit(main())
