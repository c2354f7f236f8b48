"""The "errata" suite: values that hand-typed tables often misprint,
pinned against recursions and brute force."""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from .. import counting as ct
from .. import enumeration as en
from . import Range, Thunk


# pinned regressions: values that hand-typed tables often get wrong,
# asserted against recursions and brute force (the "misprint" column is
# what must NOT come back)
ERRATA = [
    ("d(4)", lambda: ct.derangement(4), 9, 6),
    ("d(5)", lambda: ct.derangement(5), 44, 32),
    ("d(6)", lambda: ct.derangement(6), 265, 190),
    ("d(7)", lambda: ct.derangement(7), 1854, 1332),
    ("d(8)", lambda: ct.derangement(8), 14833, 10654),
    ("B(7)", lambda: ct.bell(7), 877, 887),
    ("C(3,1)", lambda: ct.cycle_count(3, 1), 2, 1),
    ("C(4,2)", lambda: ct.cycle_count(4, 2), 11, 10),
]


def errata_oracle_failure(derangements: Iterable[int]) -> Optional[str]:
    """First pinned value that brute force does not confirm; d(n) is
    enumerated for each n in `derangements`."""
    oracle = {
        f"d({n})": sum(1 for _ in en.enumerate_permutations(n, derangement_only=True))
        for n in derangements
    }
    oracle["B(7)"] = len(list(en.enumerate_set_partitions(7)))
    oracle["C(3,1)"] = sum(1 for _ in en.enumerate_permutations(3, cycles=1))
    oracle["C(4,2)"] = sum(1 for _ in en.enumerate_permutations(4, cycles=2))
    pinned = {name: good for name, _, good, _ in ERRATA}
    return next((name for name, got in oracle.items() if got != pinned[name]), None)


def _errata(fn: Callable[[], int], good: int, misprint: int) -> Thunk:
    """The check of one ERRATA row; its detail names both values, pass or fail."""
    def check() -> tuple[bool, str]:
        got = fn()
        return got == good and got != misprint, f"computed {got}; guarded misprint {misprint}"
    return check


CHECKS: list[tuple[str, Thunk]] = [
    *((f"{name} = {good}", _errata(fn, good, misprint)) for name, fn, good, misprint in ERRATA),
    ("oracle confirms pinned values", Range(errata_oracle_failure, ((4,),), ((4, 5, 6),))),
]
