"""Brute-force generation of every combinatorial family at small sizes.

These generators are the oracles that validate the closed forms and
recursions in `counting`: each family is produced explicitly, in a
deterministic canonical order, behind hard size guards so a mistyped
argument cannot melt a test run.

One cost model bounds every walk, checked by one `exact_core.guard` call
before the first object is built: a walk may visit at most `MAX_OBJECTS`
objects and build at most `MAX_LETTERS` letters.  The objects a walk
visits include those its filter drops (derangements, surjections, menage
seatings, Gergonne draws, partitions with k blocks).  That admits
functions and subsets up to 10**6 words (`subsets 19`), set partitions to
n = 11, and permutations and menage seatings to n = 9; multisets, and
words over one letter, are bounded by their letters alone.  As the
oracle for `counting`, this module calls none of its formulas: each
count is built up by bounded integer arithmetic only until it passes
the cap.  An empty answer (k > n, or words of k >= 1 letters over none)
returns before itertools allocates.

Conventions: ground sets are {1..n}; functions and permutations are
tuples of 1-based images; set partitions are tuples of blocks, each
block an ascending tuple, blocks ordered by their minimum.
"""

from __future__ import annotations

from itertools import combinations, permutations, product, repeat
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .counting import GergonneQuery, TypeVector
from .exact_core import SizeGuardError, guard  # noqa: F401 (kept as en.SizeGuardError)

# objects one walk visits, and letters in all the objects of one request:
# at the caps, `exactcomb enumerate` took up to 5.7 s and 146 MB
# (`partitions 11`; `gergonne 3162 3161 0`), CPython 3.11, a shared 2-vCPU
# x86-64 machine; one word of 10**7 letters (`multisets 1 9999999`,
# `functions 10000000 1`) peaks at 0.8-0.9 GB, one str per letter in `as_word`
MAX_OBJECTS = 10**6
MAX_LETTERS = 10**7


def _product_within(factors: Iterable[int], cap: int) -> bool:
    """Whether the product of the factors, each >= 1, is at most cap.  It
    stops at the first partial product past cap, so factors >= 2 take at
    most about log2(cap) steps."""
    out = 1
    for f in factors:
        if out > cap:
            break
        out *= f
    return out <= cap


def _choose_within(n: int, k: int, cap: int) -> bool:
    """Whether C(n, k) is at most cap, for 0 <= k <= n.  C(n, i) is built up
    for i = 0, 1, ..., min(k, n - k) and stops past cap; C(n, i) >= 2**i
    there, so that takes at most about log2(cap) steps."""
    c, i = 1, 0
    while c <= cap and i < min(k, n - k):
        c = c * (n - i) // (i + 1)
        i += 1
    return c <= cap


def _bell_within(n: int, cap: int) -> bool:
    """Whether the Bell number B(n) is at most cap, by Aitken's triangle:
    row i starts with the last entry of row i - 1, which is B(i), and each
    further entry adds the one before it and the one above that.  It stops
    at the first row past cap, after about log2(cap) rows."""
    row = [1]
    for _ in range(n):
        if row[0] > cap:
            break
        nxt = [row[-1]]
        for above in row:
            nxt.append(nxt[-1] + above)
        row = nxt
    return row[0] <= cap


def _guard_walk(within: Callable[[int], bool], letters: int, what: str) -> None:
    """Refuse a walk over more than MAX_OBJECTS objects, or over more than
    MAX_LETTERS letters when each object has at most `letters`;
    `within(cap)` says whether the number of objects is at most cap."""
    guard(within(MAX_OBJECTS) and within(MAX_LETTERS // max(letters, 1)),
          f"{what}, at most {MAX_OBJECTS} objects and {MAX_LETTERS} letters")


def as_word(values: Sequence[int]) -> str:
    """Word form of a function/letter sequence; single-digit alphabets
    concatenate ("1312"), larger ones join with commas."""
    if all(0 <= v <= 9 for v in values):
        return "".join(str(v) for v in values)
    return ",".join(str(v) for v in values)


# ---------------------------------------------------------------------------
# functions, subsets, multisets
# ---------------------------------------------------------------------------


def enumerate_functions(
    k: int, n: int, mode: str = "all"
) -> Iterator[tuple[int, ...]]:
    """All functions {1..k} -> {1..n} as image tuples, optionally filtered
    to injective or surjective ones."""
    if mode not in ("all", "injective", "surjective"):
        raise ValueError(f"unknown mode {mode!r}")
    if k < 0 or n < 0:
        raise ValueError("k and n must be >= 0")
    if mode == "injective":
        if k > n:
            return
        _guard_walk(lambda cap: _product_within(range(n, n - k, -1), cap), k,
                    f"(n)_k words with n={n}, k={k}")
        yield from permutations(range(1, n + 1), k)
        return
    if n == 0 < k:  # no word at all
        return
    # n^k words: over one letter (or none, k = 0) one word, for the letter cap alone
    _guard_walk(lambda cap: 1 <= cap if n < 2 else _product_within(repeat(n, k), cap),
                k, f"n^k words with n={n}, k={k}")
    everything = product(range(1, n + 1), repeat=k)
    if mode == "all":
        yield from everything
    else:
        full = set(range(1, n + 1))
        yield from (f for f in everything if set(f) == full)


def enumerate_subsets(n: int, k: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """Subsets of {1..n} as increasing tuples (equivalently, increasing
    words); all of them, or only the k-subsets."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if k is not None and k < 0:
        raise ValueError("k must be >= 0")
    if k is None:
        _guard_walk(lambda cap: _product_within(repeat(2, n), cap), n,
                    f"2^n subsets with n={n}")
        for size in range(n + 1):
            yield from combinations(range(1, n + 1), size)
    elif k <= n:
        _guard_walk(lambda cap: _choose_within(n, k, cap), k,
                    f"C(n,k) subsets with n={n}, k={k}")
        yield from combinations(range(1, n + 1), k)


def enumerate_multisets(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """k-multisets on {1..n} as multiplicity vectors (rho(1), ..., rho(n))."""
    if n < 0 or k < 0:
        raise ValueError("n and k must be >= 0")
    if n == 0:
        if k == 0:
            yield ()
        return
    # <n,k> = C(n+k-1, k) vectors of n entries, each written as k letters
    _guard_walk(lambda cap: _choose_within(n + k - 1, k, cap), n + k,
                f"<n,k> multisets with n={n}, k={k}")
    # ascending lexicographic order, from (0, ..., 0, k) to (k, 0, ..., 0):
    # the slot before the last nonempty one gains a unit, and the last slot
    # takes what that one held, less one
    rho = [0] * (n - 1) + [k]
    while True:
        yield tuple(rho)
        j = n - 1
        while j >= 0 and not rho[j]:
            j -= 1
        if j <= 0:
            return
        held, rho[j] = rho[j], 0
        rho[j - 1] += 1
        rho[-1] = held - 1


def multiset_word(rho: Sequence[int]) -> str:
    """Nondecreasing word for a multiplicity vector: (2,1,3) -> "112333"."""
    letters: list[int] = []
    for i, count in enumerate(rho, start=1):
        letters.extend([i] * count)
    return as_word(letters)


# ---------------------------------------------------------------------------
# set partitions
# ---------------------------------------------------------------------------

Block = tuple[int, ...]
Partition = tuple[Block, ...]


def enumerate_set_partitions(
    n: int,
    k: Optional[int] = None,
    type_vector: Optional[TypeVector] = None,
) -> Iterator[Partition]:
    """Set partitions of {1..n}, optionally restricted to k blocks or to a
    given type.  Blocks come out ascending and ordered by minimum."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if k is not None and k < 0:
        raise ValueError("k must be >= 0")
    _guard_walk(lambda cap: _bell_within(n, cap), n, f"B(n) partitions with n={n}")
    if type_vector is not None and type_vector.n != n:
        raise ValueError("type vector weight differs from n")

    def rec(i: int, blocks: list[list[int]]):
        if i > n:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    if n == 0:
        candidates: Iterator[Partition] = iter([()])
    else:
        candidates = rec(1, [])
    for part in candidates:
        if k is not None and len(part) != k:
            continue
        if type_vector is not None and partition_type(part) != type_vector:
            continue
        yield part


def partition_type(partition: Partition) -> TypeVector:
    """The multiplicity vector recording how many blocks of each size."""
    return TypeVector.of_sizes([len(b) for b in partition]) if partition else TypeVector(0, ())


def kernel_partition(func: Sequence[int]) -> Partition:
    """Partition of the domain {1..k} grouping positions with equal values.

    The induced map block -> common value is injective by construction;
    this is asserted."""
    groups: dict[int, list[int]] = {}
    for pos, value in enumerate(func, start=1):
        groups.setdefault(value, []).append(pos)
    blocks = tuple(sorted((tuple(g) for g in groups.values()), key=lambda b: b[0]))
    assert len({func[b[0] - 1] for b in blocks}) == len(blocks)
    return blocks


# ---------------------------------------------------------------------------
# permutations and cycles
# ---------------------------------------------------------------------------

Cycle = tuple[int, ...]
CycleDecomposition = tuple[Cycle, ...]


def enumerate_permutations(
    n: int,
    cycles: Optional[int] = None,
    type_vector: Optional[TypeVector] = None,
    derangement_only: bool = False,
) -> Iterator[tuple[int, ...]]:
    """Permutations of {1..n} as image tuples, optionally filtered by
    cycle count, cycle type, or to derangements."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if cycles is not None and cycles < 0:
        raise ValueError("cycles must be >= 0")
    _guard_walk(lambda cap: _product_within(range(2, n + 1), cap), n,
                f"n! permutations with n={n}")
    if type_vector is not None and type_vector.n != n:
        raise ValueError("type vector weight differs from n")
    for perm in permutations(range(1, n + 1)):
        if derangement_only and any(perm[i - 1] == i for i in range(1, n + 1)):
            continue
        if cycles is not None or type_vector is not None:
            decomp = cycle_decompose(perm)
            if cycles is not None and len(decomp) != cycles:
                continue
            if type_vector is not None and permutation_type(perm) != type_vector:
                continue
        yield perm


def fixed_points(perm: Sequence[int]) -> tuple[int, ...]:
    return tuple(i for i in range(1, len(perm) + 1) if perm[i - 1] == i)


def cycle_decompose(perm: Sequence[int]) -> CycleDecomposition:
    """Unique disjoint-cycle factorization by following the arrows of the
    permutation digraph; each cycle starts at its least element, cycles
    are ordered by least element."""
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError("not a permutation of 1..n")
    seen = [False] * (n + 1)
    out: list[Cycle] = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = perm[x - 1]
        out.append(tuple(cyc))
    return tuple(out)


def cycles_to_permutation(cycles: Sequence[Cycle], n: int) -> tuple[int, ...]:
    """Inverse of cycle_decompose: rebuild the image tuple."""
    image = [0] * (n + 1)
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            image[a] = b
    if 0 in image[1:]:
        raise ValueError("cycles do not cover 1..n")
    return tuple(image[1:])


def cycle_words(cycle: Cycle) -> tuple[str, ...]:
    """The k distinct word presentations of a k-cycle (all rotations of
    its orbit word)."""
    k = len(cycle)
    return tuple(as_word(cycle[i:] + cycle[:i]) for i in range(k))


def permutation_type(perm: Sequence[int]) -> TypeVector:
    return (
        TypeVector.of_sizes([len(c) for c in cycle_decompose(perm)])
        if perm
        else TypeVector(0, ())
    )


# ---------------------------------------------------------------------------
# Gergonne draws and menage seatings
# ---------------------------------------------------------------------------


def enumerate_gergonne(q: GergonneQuery) -> Iterator[tuple[int, ...]]:
    """All winning k-subsets for a Gergonne query: consecutive chosen
    positions at least m+1 apart (also around the wrap for circular)."""
    for subset in enumerate_subsets(q.n, q.k):
        ok = all(b - a >= q.m + 1 for a, b in zip(subset, subset[1:]))
        if ok and q.circular and q.k >= 2:
            ok = subset[0] + q.n - subset[-1] >= q.m + 1
        if ok:
            yield subset


def enumerate_menage(n: int) -> Iterator[tuple[int, ...]]:
    """Solutions of the reduced menage problem: women fixed in the odd
    seats, men placed by a bijection f with f(i) never i (own partner on
    her right) nor i+1 cyclically (next partner on her left)."""
    for f in enumerate_permutations(n):
        if not any(f[i - 1] == i or f[i - 1] == i % n + 1 for i in range(1, n + 1)):
            yield f
