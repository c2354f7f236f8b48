"""The "surjections" suite: the surjection count against filtered
enumeration and against inversion on the subset lattice."""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .. import counting as ct
from .. import enumeration as en
from .. import poset_mobius as pm
from . import Range, Thunk


def surjection_filter_failure(ks: int, ns: int) -> Optional[tuple]:
    """First (k, n), k < ks, n < ns: surjection count != surjective words."""
    return next(
        ((k, n) for k in range(ks) for n in range(ns)
         if ct.surjection_count(k, n)
         != len(list(en.enumerate_functions(k, n, "surjective")))),
        None,
    )


def surjection_inversion_failure(ns: int, ks: int) -> Optional[tuple]:
    """First (n, k), 1 <= n < ns and k < ks, where inverting |B|^k on the
    subsets B of an n-set misses the surjection count."""
    for n in range(1, ns):
        lat = pm.boolean_lattice(n)
        top = frozenset(range(1, n + 1))
        for k in range(ks):
            g = {b: Fraction(len(b) ** k) for b in lat.elements}
            if pm.invert(lat, g)[top] != ct.surjection_count(k, n):
                return n, k
    return None


CHECKS: list[tuple[str, Thunk]] = [
    ("alternating sum matches filtered enumeration",
     Range(surjection_filter_failure, (6, 5), (7, 6))),
    ("matches inversion on the subset lattice",
     Range(surjection_inversion_failure, (5, 5), (5, 7))),
]
