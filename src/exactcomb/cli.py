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

This module holds `coeff`, the parser, `run` and `main`.  The handlers of
`table`, `enumerate`, `verify`, `poset` and `rsa`, with their argument
builders and their `TABLE`, `ENUMERATE` and `RSA` tables, live in
`commands`, which is imported only when one of those commands runs.  The
parser has a subparser and help for all six commands, so `exactcomb -h`
and the choice errors list them all, but only the command named on the
command line gets its arguments (and `poset` and `rsa` their nested
subparsers).  A `coeff` call thus builds the root parser, six named
subparsers and its own arguments, and compiles `cli`, `exact_core` and
`counting` only, with `series` for a `gentile` request with k > p, whose
rows `series.convolve` builds.

Each command imports only the modules it runs: `counting` and
`exact_core` are loaded here; `phi`, `mobius` and the `rsa` subcommands
load `number_theory`, `coeff gentile` with k > p loads `series`, `table`
loads `recursive_matrix` for its matrix families, `enumerate` loads
`enumeration`, `poset` loads `poset_mobius` and `verify` loads the
`verify` package and the module of each suite it runs (none for
`--list`), each when the command runs, and only the commands that read or
print JSON load `json`.  `fractions` is loaded only by the commands that
read or make a fraction: `coeff gergonne`, `coeff birthday`, `poset
invert` and a `verify` run whose suites make one.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Container, Iterable, NamedTuple, Optional, Sequence

from . import counting as ct
from .exact_core import format_rational, parse_int


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
# parser
# ---------------------------------------------------------------------------

# each command and its help, in the order `exactcomb -h` lists them
COMMANDS = {
    "coeff": "print one exact coefficient",
    "table": "dump a coefficient table",
    "enumerate": "dump a family, one object per line",
    "verify": "run self-check suites",
    "poset": "Mobius tables, inversion, sieve",
    "rsa": "toy RSA (no security!)",
}


def _coeff_arguments(p_coeff: argparse.ArgumentParser) -> None:
    p_coeff.add_argument("family", choices=list(COEFF))
    p_coeff.add_argument("args", nargs="*")
    p_coeff.add_argument("--circular", action="store_true",
                         help="circular variant (gergonne)")
    p_coeff.add_argument("--days", type=parse_int, default=365,
                         help="year length (birthday)")
    p_coeff.set_defaults(fn=_cmd_coeff)


def build_parser(built: Container[str]) -> argparse.ArgumentParser:
    """The root parser with a subparser and help for every command, and the
    arguments (nested subcommands included) of the commands in `built`
    only; `commands` is imported when one of its commands is built."""
    parser = argparse.ArgumentParser(
        prog="exactcomb",
        description="Exact combinatorial coefficients, tables, enumerations, "
        "poset inversion, sieves, and self-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in COMMANDS.items():
        command = sub.add_parser(name, help=text)
        if name not in built:
            continue
        if name == "coeff":
            _coeff_arguments(command)
        else:
            from .commands import ARGUMENTS

            ARGUMENTS[name](command)
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
    (ArithmeticError) as 1.

    Only the command named by the first token that is not an option gets
    its arguments: the root parser has no option that takes a value, so that
    token is the command, and one that names no command is an error that
    the root parser reports itself."""
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser({next((a for a in argv if not a.startswith("-")), None)})
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return CommandResult(2 if exc.code else 0, "")
    try:
        code, out = args.fn(args)
        write(out)
        return CommandResult(code, "")
    except (ValueError, KeyError, OSError) as exc:  # json.JSONDecodeError included
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
    # `python -m exactcomb.cli`: `commands` imports from this module, so it
    # is registered under its package name too, not compiled a second time
    sys.modules.setdefault(f"{__package__}.cli", sys.modules[__name__])
    sys.exit(main())
