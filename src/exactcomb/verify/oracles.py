"""The "oracles" suite: counting formulas against the enumerators."""

from __future__ import annotations

from typing import Optional

from .. import counting as ct
from .. import enumeration as en
from ..exact_core import factorial
from . import Range, Thunk


def functions_failure(size: int) -> Optional[tuple]:
    """First (k, n), both < size, where the functions from a k-set to an n-set,
    in all or only the injective ones, are miscounted; the surjective ones
    are `surjection_filter_failure`'s."""
    for k in range(size):
        for n in range(size):
            if (len(list(en.enumerate_functions(k, n))) != n**k
                    or len(list(en.enumerate_functions(k, n, "injective")))
                    != ct.falling_factorial(n, k)):
                return k, n
    return None


def subsets_failure(size: int) -> Optional[int]:
    """First n < size: subsets, in full by size or per size k, miscounted."""
    for n in range(size):
        row = [ct.binomial(n, k) for k in range(n + 2)]
        by_size = [0] * (n + 2)
        for s in en.enumerate_subsets(n):
            by_size[len(s)] += 1
        by_k = [len(list(en.enumerate_subsets(n, k))) for k in range(n + 2)]
        if sum(by_size) != 2**n or by_size != row or by_k != row:
            return n
    return None


def multisets_failure(ns: int, ks: int) -> Optional[tuple]:
    """First (n, k), n < ns, k < ks: multisets miscounted."""
    return next(
        ((n, k) for n in range(ns) for k in range(ks)
         if len(list(en.enumerate_multisets(n, k))) != ct.multiset_coeff(n, k)),
        None,
    )


def partitions_failure(size: int) -> Optional[int]:
    """First n < size: set partitions, in all or by blocks, miscounted."""
    for n in range(size):
        by_blocks = [0] * (n + 1)
        for p in en.enumerate_set_partitions(n):
            by_blocks[len(p)] += 1
        if (sum(by_blocks) != ct.bell(n)
                or by_blocks != [ct.stirling2(n, k) for k in range(n + 1)]):
            return n
    return None


def permutations_failure(size: int) -> Optional[int]:
    """First n < size: permutations, by cycles or fixed points, miscounted."""
    for n in range(size):
        by_cycles = [0] * (n + 1)
        by_fixed = [0] * (n + 1)
        for p in en.enumerate_permutations(n):
            by_cycles[len(en.cycle_decompose(p))] += 1
            by_fixed[len(en.fixed_points(p))] += 1
        if (sum(by_cycles) != factorial(n)
                or by_cycles != [ct.cycle_count(n, k) for k in range(n + 1)]
                or by_fixed != [ct.derangement_fixed(n, k) for k in range(n + 1)]):
            return n
    return None


def graph_count_failure(size: int, edges: int) -> Optional[tuple]:
    """First (kind, n, k), n < size and k None or < edges, where `graph_count`
    differs from enumeration.  The slots of a kind are the 2-subsets of the
    vertices, or for digraphs the 2-letter words (injective ones when
    loopless); a graph is a set of slots and a multigraph a multiset."""
    for kind in ct.GRAPH_KINDS:
        for n in range(size):
            if "digraph" not in kind:
                slots = len(list(en.enumerate_subsets(n, 2)))
            else:
                mode = "injective" if "loopless" in kind else "all"
                slots = len(list(en.enumerate_functions(2, n, mode)))
            for k in (None, *range(edges)):
                if "multi" in kind:
                    if k is None:
                        continue  # an infinite family
                    count = len(list(en.enumerate_multisets(slots, k)))
                else:
                    count = len(list(en.enumerate_subsets(slots, k)))
                if count != ct.graph_count(kind, n, k):
                    return kind, n, k
    return None


CHECKS: list[tuple[str, Thunk]] = [
    ("function counts", Range(functions_failure, (5,), (6,))),
    ("subset counts", Range(subsets_failure, (9,), (17,))),
    ("multiset counts", Range(multisets_failure, (5, 6), (6, 8))),
    ("partition counts", Range(partitions_failure, (8,), (11,))),
    ("permutation counts", Range(permutations_failure, (7,), (9,))),
    ("graph counts on every kind", Range(graph_count_failure, (4, 4), (5, 6))),
]
