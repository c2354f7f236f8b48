"""The "sieve" suite: the sieve of `poset_mobius` on placement families
and on random families, against membership scans."""

from __future__ import annotations

import random
from itertools import combinations
from typing import Iterable, Optional

from .. import counting as ct
from .. import enumeration as en
from .. import poset_mobius as pm
from . import Range, Thunk


def derangement_sieve_failure(size: int) -> Optional[int]:
    """First n in 1..size-1 where the sieve over the permutations fixing each
    point misses the derangement or fixed-point counts."""
    for n in range(1, size):
        fam = derangement_family(n)
        if (pm.sylvester_count(fam) != ct.derangement(n)
                or pm.jordan_counts(fam)
                != [ct.derangement_fixed(n, k) for k in range(n + 1)]):
            return n
    return None


def random_sieve_failure(seed: int, trials: int, max_universe: int,
                         max_sets: int) -> Optional[int]:
    """First of `trials` random families (at most `max_sets` sets, universe at
    most `max_universe`) whose exactly-m counts differ from a membership
    scan, or whose Sylvester numbers differ from the intersection sizes
    summed over the k-element index sets."""
    rng = random.Random(seed)
    for trial in range(trials):
        universe = rng.randint(1, max_universe)
        sets = [
            frozenset(rng.sample(range(universe), rng.randint(0, universe)))
            for _ in range(rng.randint(0, max_sets))
        ]
        fam = pm.SubsetFamily(universe, sets)
        exact = [sum(1 for x in range(universe)
                     if sum(x in s for s in sets) == m)
                 for m in range(len(sets) + 1)]
        everything = frozenset(range(universe))
        sylvester = [sum(len(everything.intersection(*chosen)) for chosen in combinations(sets, k))
                     for k in range(len(sets) + 1)]
        if (pm.sylvester_count(fam) != exact[0] or pm.jordan_counts(fam) != exact
                or pm.sylvester_numbers(fam) != sylvester):
            return trial
    return None


def _placement_family(n: int, events: Iterable[tuple[int, int]]) -> pm.SubsetFamily:
    """Universe: the n! permutations f of {1..n} (indexed); one set per
    event (i, t), the permutations with f(i) = t."""
    perms = list(en.enumerate_permutations(n))
    return pm.SubsetFamily(len(perms), [
        frozenset(idx for idx, f in enumerate(perms) if f[i - 1] == t)
        for i, t in events
    ])


def derangement_family(n: int) -> pm.SubsetFamily:
    """Universe: the n! permutations (indexed); set i: permutations
    fixing the point i."""
    return _placement_family(n, ((i, i) for i in range(1, n + 1)))


def menage_family(n: int) -> pm.SubsetFamily:
    """Universe: all n! placements of the men; the 2n forbidden events of
    the reduced menage problem: man i' to the right of woman i, and man
    (i+1)' to the left of woman i+1."""
    return _placement_family(
        n, ((i, t) for i in range(1, n + 1) for t in (i, i % n + 1)))


CHECKS: list[tuple[str, Thunk]] = [
    ("derangement families via sieve", Range(derangement_sieve_failure, (7,), (8,))),
    ("random families: exactly-m counts by scan", Range(
        random_sieve_failure, (21, 10, 300, 6), (123, 20, 1000, 8), (31, 15, 400, 7))),
]
