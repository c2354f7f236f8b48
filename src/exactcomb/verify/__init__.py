"""Self-checks: every identity the library claims, run end to end.

Each suite is a module of this package, named after it, whose `CHECKS`
rows (name, thunk) are in print order; a thunk takes no argument and
returns (ok, detail).  A row's suite is the module that holds it.
`SUITES` names the suites in print order.  `run_suites` imports the
modules of the suites it runs and no other, so `verify core` compiles the
core checks alone and loads no module they do not call, and `verify
--list` loads no check module.

`run_suites` runs each check on its own: a check that raises an Exception
fails alone, with "raised <Type>: <message>" as its detail, and every
other check still runs.  The CLI `verify` command prints one line per
check and exits nonzero if anything failed.  The "errata" suite pins
values that are frequently misprinted in hand-typed tables: it reports
both the bad value and the one the recursions and brute-force oracles
agree on.

A check that runs over a range is a `*_failure` function of its suite's
module: it takes the range and returns the first failing case, or None
(for seeded random cases, the index of the failing trial).  Its row is
the one place that states its arguments: a `Range` holds the arguments
`verify` runs, which keep it fast, and the larger ones that the
acceptance tests run as well.
"""

from __future__ import annotations

from typing import Callable

from ..exact_core import Record

# the suites in print order, each a module of this package
SUITES = ("core", "series", "matrix", "counting", "oracles", "faa", "stirling", "mobius",
          "sieve", "gergonne", "menage", "numbers", "birthday", "surjections", "errata")


class Check(Record):
    __slots__ = ("name", "ok", "detail")

    def __init__(self, name: str, ok: bool, detail: str):
        super().__init__(name, ok, detail)


def _holds(cond) -> tuple[bool, str]:
    return bool(cond), ""


Thunk = Callable[[], tuple[bool, str]]


class Range(Record):
    """The thunk of a range check: `verify` runs `fn(*quick)`, and tier-1
    also runs `fn(*args)` for each argument tuple in `deep`.  The check
    passes when `fn` finds no failure."""

    __slots__ = ("fn", "quick", "deep")

    def __init__(self, fn: Callable[..., object], quick: tuple, *deep: tuple):
        super().__init__(fn, quick, deep)

    def __call__(self) -> tuple[bool, str]:
        failure = self.fn(*self.quick)
        return failure is None, "" if failure is None else f"first failure {failure}"


def _rows(suite: str) -> list[tuple[str, Thunk]]:
    """The `CHECKS` rows of a suite, from its module, imported on first use
    by a relative __import__, which `-X importtime` times."""
    return __import__(suite, globals(), None, (), 1).CHECKS


def run_suites(names: list[str]) -> list[tuple[str, Check]]:
    """Run the checks of the named suites ("all" is every suite), in the
    order named, repeats included.  Every name is checked before any check
    runs: an unknown one raises ValueError.  A check that raises an Exception
    fails alone, with the exception as its detail; every other check runs."""
    for name in names:
        if name != "all" and name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; available: all, {', '.join(SUITES)}")
    results = []
    for name in names:
        for module in SUITES if name == "all" else (name,):
            for check_name, thunk in _rows(module):
                try:
                    ok, detail = thunk()
                except Exception as exc:
                    ok, detail = False, f"raised {type(exc).__name__}: {exc}"
                results.append((module, Check(check_name, ok, detail)))
    return results

