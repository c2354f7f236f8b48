"""Command-line surface: exact coefficients, table dumps, enumeration
dumps, poset/sieve tools, toy RSA, and the self-check suites.

All commands are one-shot; numbers are printed as exact decimal strings
(rationals as "p/q"), and JSON output keeps integers as strings so that
consumers cannot silently lose precision.  Exit codes: 0 ok, 1
verification failure or internal inconsistency, 2 usage or input error
or a request too large to finish (refused by a size guard, or a
`MemoryError` while it ran).

A command returns its exit code and its lines, lazy where output is large;
`main` writes them to stdout as they are made, and an error to stderr after
the lines made before it.  If the reader closes stdout (`| head`), writing
stops and the command exits with its own code, without a message.

Each command imports only the modules it runs: `counting` and
`exact_core` are loaded here; `phi`, `mobius` and the `rsa` subcommands
load `number_theory`, `table` loads `recursive_matrix` for its matrix
families, `enumerate` loads `enumeration`, `poset` loads `poset_mobius`
and `verify` loads `verify`, each when the command runs, and only the
commands that read or print JSON load `json`.  `fractions` is loaded only
by the commands that read or make a fraction: `coeff gergonne` and `coeff
birthday`, the `table` matrix families (through `series`), `poset` and
`verify`.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from . import counting as ct
from .exact_core import format_rational, guard, parse_int, parse_rational


class CommandResult(NamedTuple):
    code: int  # 0 ok, 1 verification failure or inconsistency, 2 usage error or too large
    error: str  # the error message for stderr, or ""


Output = tuple[int, Iterable[str]]  # what a command returns: exit code, lines

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


def _number_theory(name: str) -> Callable:
    """The number_theory function `name`, imported when it is called."""
    def call(*a):
        from . import number_theory as nt

        return getattr(nt, name)(*a)
    return call


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
    "phi": (_ints(1), _number_theory("euler_phi")),
    "mobius": (_ints(1), _number_theory("mobius_classical")),
    "birthday": (_ints(1, "days"), ct.birthday_probability),
    "graph": (_graph_args, ct.graph_count),
}


def _show(value) -> str:
    """An int as a decimal, a Fraction as "p/q", and gergonne's
    (count, probability) pair as both, separated by a space."""
    if isinstance(value, tuple):
        return " ".join(map(format_rational, value))
    return format_rational(value)


def _cmd_coeff(args: argparse.Namespace) -> Output:
    parse, fn = COEFF[args.family]
    return 0, [_show(fn(*parse(args.family, args)))]


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

        rows = [[str(v) for v in row] for row in table]
        return 0, [json.dumps({"family": args.family, "rows": rows})]
    return 0, (",".join(str(v) for v in row) for row in table)


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


def _cmd_enumerate(args: argparse.Namespace) -> Output:
    if args.limit < 0:
        raise ValueError("--limit must be >= 0")
    parse, lines_of = ENUMERATE[args.family]
    lines = lines_of(*parse(args.family, args))
    if args.limit:  # the first line past the limit is written as "..."
        lines = (line if i < args.limit else "..."
                 for i, line in zip(range(args.limit + 1), lines))
    return 0, lines


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


# ---------------------------------------------------------------------------
# poset
# ---------------------------------------------------------------------------


def _load_poset(path: str):
    """The poset in a JSON file."""
    from .poset_mobius import FinitePoset

    with open(path, encoding="utf-8") as fh:
        return FinitePoset.from_json(fh.read())


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
    p_coeff.add_argument("--days", type=parse_int, default=365,
                         help="year length (birthday)")
    p_coeff.set_defaults(fn=_cmd_coeff)

    p_table = sub.add_parser("table", help="dump a coefficient table")
    p_table.add_argument("family", choices=list(TABLE))
    p_table.add_argument("--rows", type=parse_int, required=True)
    p_table.add_argument("--cols", type=parse_int, required=True)
    p_table.add_argument("--p", type=parse_int, default=None,
                         help="occupancy bound (gentile)")
    p_table.add_argument("--format", choices=["csv", "json"], default="csv")
    p_table.set_defaults(fn=_cmd_table)

    p_enum = sub.add_parser("enumerate", help="dump a family, one object per line")
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
    for name, (options, _) in RSA.items():
        pr = rsa_sub.add_parser(name)
        for option in options:
            pr.add_argument(f"--{option}", type=parse_int, required=True)
        pr.set_defaults(fn=_cmd_rsa)

    return parser


CHUNK = 1 << 16  # characters per write to stdout, set from CHANGES.md's measurement


def _write_lines(lines: Iterable[str]) -> None:
    """Write each line and a newline to stdout as the lines are made, in chunks
    of about CHUNK characters (a longer line alone, uncopied), and the lines
    made before an error before it propagates; a closed stdout stops it."""
    chunk, size = [], 0
    try:
        try:
            for line in lines:
                if chunk and size + len(line) > CHUNK:
                    sys.stdout.writelines(("\n".join(chunk), "\n"))
                    chunk, size = [], 0
                chunk.append(line)
                size += len(line) + 1
        finally:
            if chunk:
                sys.stdout.writelines(("\n".join(chunk), "\n"))
            sys.stdout.flush()
    except BrokenPipeError:  # what is left, and the flush at exit, go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def run(argv: Optional[Sequence[str]], write: Callable[[Iterable[str]], None]) -> CommandResult:
    """Parse and execute, handing the lines to `write`.  Usage and input errors
    come back as code 2, as does a request that ran out of memory (too large,
    like one a size guard refuses), and a disagreement between two routes
    (ArithmeticError) as 1."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return CommandResult(2 if exc.code else 0, "")
    try:
        code, out = args.fn(args)
        write(out)
        return CommandResult(code, "")
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
    """Run, writing the lines to stdout and an error to stderr.  Exact answers
    may pass CPython's 4300-digit limit on int-to-str conversion, so it is
    lifted meanwhile."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code, error = run(argv, _write_lines)
    finally:
        sys.set_int_max_str_digits(limit)
    if error:
        print(error, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
