"""Brute-force generation of every combinatorial family at small sizes.

These generators are the oracles that validate the closed forms and
recursions in `counting`: each family is produced explicitly, in a
deterministic canonical order, behind hard size guards so a mistyped
argument cannot melt a test run.

One cost model bounds every walk, checked by one `exact_core.guard` call
before the first object is built: a walk may visit at most `MAX_OBJECTS`
objects and build at most `MAX_LETTERS` letters.  Derangements, menage
seatings, surjections, Gergonne draws and partitions with k blocks are
built directly, so a walk builds only the objects it admits, but the cost
model still counts the unpruned walk (all n! permutations, all n^k words,
all C(n, k) subsets, all B(n) partitions): an upper bound on what the
walk visits, so pruning moves no boundary.  Only cycle counts are still
a filter, over every permutation.  Set partitions and the pruned
permutations and words are built level by level: each level is one
generator that extends every prefix of the level before it by one
position, so a finished object passes through one generator frame (none
where its last positions come from a table of tails), not through one
frame per position.  That admits
functions and subsets up to 10**6 words (`subsets 19`), set partitions to
n = 11, and permutations and menage seatings to n = 9; multisets, and
words over one letter, are bounded by their letters alone.  As the
oracle for `counting`, this module calls none of its formulas: each
count is built up by bounded integer arithmetic only until it passes
`MAX_OBJECTS` (the `_*_upto` helpers), and `_guard_walk` checks that
count, and the count times the letters of one object, against the two
caps.  An empty answer (k > n, or words of k >= 1 letters over none,
or surjections onto more letters than a word has) returns before
anything is allocated.

Conventions: ground sets are {1..n}; functions and permutations are
tuples of 1-based images; set partitions are tuples of blocks, each
block an ascending tuple, blocks ordered by their minimum.
"""

from __future__ import annotations

from functools import cache
from itertools import chain, combinations, compress, permutations, product, repeat
from operator import add, contains
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .counting import GergonneQuery, TypeVector
from .exact_core import guard

# objects one walk visits, and letters in all the objects of one request:
# at the caps, `exactcomb enumerate` took up to 2.8 s (`functions 6 10`, 10**6
# words; `partitions 11` 1.3 s, 16 MB) and 111 MB (`functions 10000000 1`, one
# word of 10**7 letters, 80 MB of it the image tuple), CPython 3.11, a shared
# 2-vCPU x86-64 machine
MAX_OBJECTS = 10**6
MAX_LETTERS = 10**7


def _product_upto(factors: Iterable[int]) -> int:
    """The product of the factors, each >= 1, or a partial product past
    MAX_OBJECTS, where it stops: factors >= 2 take at most about
    log2(MAX_OBJECTS) steps."""
    out = 1
    for f in factors:
        if out > MAX_OBJECTS:
            break
        out *= f
    return out


def _choose_upto(n: int, k: int) -> int:
    """C(n, k) for 0 <= k <= n, or some C(n, i) past MAX_OBJECTS.  C(n, i)
    is built up for i = 0, 1, ..., min(k, n - k) and stops past the cap;
    C(n, i) >= 2**i there, so that takes at most about log2(MAX_OBJECTS)
    steps."""
    c, i = 1, 0
    while c <= MAX_OBJECTS and i < min(k, n - k):
        c = c * (n - i) // (i + 1)
        i += 1
    return c


def _bell_upto(n: int) -> int:
    """The Bell number B(n), or some B(i) past MAX_OBJECTS, by Aitken's
    triangle: row i starts with the last entry of row i - 1, which is B(i),
    and each further entry adds the one before it and the one above that.
    It stops at the first row past the cap, after about log2(MAX_OBJECTS)
    rows."""
    row = [1]
    for _ in range(n):
        if row[0] > MAX_OBJECTS:
            break
        nxt = [row[-1]]
        for above in row:
            nxt.append(nxt[-1] + above)
        row = nxt
    return row[0]


def _guard_walk(count: int, letters: int, what: str) -> None:
    """Refuse a walk over `count` objects of at most `letters` letters each
    when that is more than MAX_OBJECTS objects or MAX_LETTERS letters; a
    count from the `_*_upto` helpers is exact up to MAX_OBJECTS."""
    guard(count <= MAX_OBJECTS and count * max(letters, 1) <= MAX_LETTERS,
          f"{what}, at most {MAX_OBJECTS} objects and {MAX_LETTERS} letters")


# byte v to the digit v and every other byte to "-", which marks a letter
# above 9; a word over 0..9 thus needs no str per letter
_DIGITS = b"0123456789" + b"-" * 246


def as_word(values: Sequence[int]) -> str:
    """Word form of a function/letter sequence; single-digit alphabets
    concatenate ("1312"), larger ones join with commas."""
    try:
        word = bytes(values).translate(_DIGITS).decode()
    except ValueError:  # a letter outside 0..255
        word = "-"
    if "-" in word:
        return ",".join(map(str, values))
    return word


# ---------------------------------------------------------------------------
# functions, subsets, multisets
# ---------------------------------------------------------------------------


def _with_tails(
    walk: Iterable[tuple[tuple[int, ...], object]],
    tails_of: Callable[[object], list[tuple[int, ...]]],
) -> Iterator[tuple[int, ...]]:
    """Each prefix of a walk over (prefix, key) pairs followed by each tail
    in tails_of(key), in order.  tails_of runs once per key, through a
    `functools.cache` made for each call, so walks consumed side by side
    share nothing, and a finished object passes through no generator
    frame."""
    tails = cache(tails_of)
    return chain.from_iterable(map(prefix.__add__, tails(key)) for prefix, key in walk)


def _surjections(k: int, n: int) -> Iterator[tuple[int, ...]]:
    """The words of k letters over 1..n, 2 <= n <= k, that use every
    letter, in lexicographic order.  Level by level, each prefix carries
    the mask of the letters it uses, and takes a letter it already used
    only while the positions left after it can still cover the letters
    it misses.  The last t positions, with n^t <= 256, come from a table
    that maps each mask to the words of t letters covering what it
    misses: without the table the walk was slower than the filter it
    replaced over two letters, where nearly every word is kept."""
    t = 0
    while t < k and n ** (t + 1) <= 256:
        t += 1
    full = (1 << n) - 1
    bits = [1 << v for v in range(n)]
    masks = [0]  # the letters of each word of t letters, in product order
    for _ in range(t):
        masks = [m | b for m in masks for b in bits]
    words = list(product(range(1, n + 1), repeat=t))

    def level(parents, left):
        for prefix, used in parents:
            reuse = n - used.bit_count() <= left
            for v, bit in enumerate(bits, start=1):
                if reuse or not used & bit:
                    yield prefix + (v,), used | bit

    walk: Iterable = iter([((), 0)])
    for left in range(k - 1, t - 1, -1):  # positions after the one this level fills
        walk = level(walk, left)
    return _with_tails(walk, lambda used: list(compress(words, [m | used == full for m in masks])))


def enumerate_functions(
    k: int, n: int, mode: str = "all"
) -> Iterator[tuple[int, ...]]:
    """All functions {1..k} -> {1..n} as image tuples, or only the
    injective or the surjective ones."""
    if mode not in ("all", "injective", "surjective"):
        raise ValueError(f"unknown mode {mode!r}")
    if k < 0 or n < 0:
        raise ValueError("k and n must be >= 0")
    if mode == "injective":
        if k > n:
            return
        _guard_walk(_product_upto(range(n, n - k, -1)), k, f"(n)_k words with n={n}, k={k}")
        yield from permutations(range(1, n + 1), k)
        return
    if n == 0 < k or mode == "surjective" and n > k:  # no word at all
        return
    # n^k words: over one letter (or none, k = 0) one word, for the letter cap alone
    _guard_walk(1 if n < 2 else _product_upto(repeat(n, k)), k, f"n^k words with n={n}, k={k}")
    # neither the word over one letter nor the one-letter words go through
    # product, which copies the letters into a pool first
    if n < 2:  # the one word, which uses every letter there is
        yield (1,) * k
    elif mode == "surjective":
        yield from _surjections(k, n)
    elif k == 1:
        yield from zip(range(1, n + 1))
    else:
        yield from product(range(1, n + 1), repeat=k)


def enumerate_subsets(n: int, k: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """Subsets of {1..n} as increasing tuples (equivalently, increasing
    words); all of them, or only the k-subsets."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if k is not None and k < 0:
        raise ValueError("k must be >= 0")
    if k is None:
        _guard_walk(_product_upto(repeat(2, n)), n, f"2^n subsets with n={n}")
        for size in range(n + 1):
            yield from combinations(range(1, n + 1), size)
    elif k <= n:
        _guard_walk(_choose_upto(n, k), k, f"C(n,k) subsets with n={n}, k={k}")
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
    _guard_walk(_choose_upto(n + k - 1, k), n + k, f"<n,k> multisets with n={n}, k={k}")
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
    if not any(rho[9:]):  # letters 1..9 only: one digit each, no list of letters
        return "".join(str(i) * count for i, count in enumerate(rho, start=1))
    letters: list[int] = []
    for i, count in enumerate(rho, start=1):
        letters.extend([i] * count)
    return as_word(letters)


# ---------------------------------------------------------------------------
# set partitions
# ---------------------------------------------------------------------------

Block = tuple[int, ...]
Partition = tuple[Block, ...]


def enumerate_set_partitions(n: int, k: Optional[int] = None) -> Iterator[Partition]:
    """Set partitions of {1..n}, optionally restricted to k blocks.  Blocks
    come out ascending and ordered by minimum.

    The partitions of {1..i} are built from those of {1..i-1}, one
    generator per level: i joins each block in turn, then opens its own,
    so the order is lexicographic in the restricted growth string.  A
    child shares the parent's block tuples, but for the one i joins.
    With k blocks, no block opens past k, and i joins no block once the
    elements after it could not open the blocks still missing."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if k is not None and k < 0:
        raise ValueError("k must be >= 0")
    _guard_walk(_bell_upto(n), n, f"B(n) partitions with n={n}")

    if k is not None and k > n:
        return
    # end with at least `fewest` and at most `most` blocks
    fewest, most = (0, n) if k is None else (k, k)

    def level(parents: Iterable[Partition], i: int) -> Iterator[Partition]:
        alone = ((i,),)
        for part in parents:
            size = len(part)
            if n - i >= fewest - size:  # i + 1..n can still open the blocks missing
                blocks = list(part)
                for j, block in enumerate(part):
                    blocks[j] = block + (i,)
                    yield tuple(blocks)
                    blocks[j] = block
            if size < most:
                yield part + alone

    walk: Iterable[Partition] = iter([()])
    for i in range(1, n + 1):
        walk = level(walk, i)
    yield from walk


def partition_type(partition: Partition) -> TypeVector:
    """The multiplicity vector recording how many blocks of each size."""
    return TypeVector.of_sizes([len(b) for b in partition])


# ---------------------------------------------------------------------------
# permutations and cycles
# ---------------------------------------------------------------------------

Cycle = tuple[int, ...]
CycleDecomposition = tuple[Cycle, ...]


def enumerate_permutations(
    n: int,
    cycles: Optional[int] = None,
    derangement_only: bool = False,
) -> Iterator[tuple[int, ...]]:
    """Permutations of {1..n} as image tuples, optionally filtered by
    cycle count, or to derangements."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if cycles is not None and cycles < 0:
        raise ValueError("cycles must be >= 0")
    _guard_permutations(n)
    if derangement_only:
        perms = _avoiding(n, [(i,) for i in range(1, n + 1)])
    else:
        perms = permutations(range(1, n + 1))
    if cycles is not None:
        perms = (perm for perm in perms if _cycle_count(perm) == cycles)
    yield from perms


def _guard_permutations(n: int) -> None:
    """Refuse a walk over the n! permutations past the cost model."""
    _guard_walk(_product_upto(range(2, n + 1)), n, f"n! permutations with n={n}")


def _avoiding(n: int, banned: Sequence[Sequence[int]]) -> Iterator[tuple[int, ...]]:
    """The permutations of 1..n, in lexicographic order, whose value at
    each position i avoids banned[i - 1].  Level by level, each prefix
    carries the tuple of values still free and is extended by each free
    value its next position admits, in ascending order, so a branch ends
    at its first banned value.  The last three positions (all of them
    for n <= 3) come from a table that maps each tuple of three free
    values to its admissible orders, each entry built on first use by
    filtering itertools.permutations."""
    tail = min(3, n)
    ends = banned[n - tail:]

    def level(parents, bad):
        for prefix, free in parents:
            for j, v in enumerate(free):
                if v not in bad:
                    yield prefix + (v,), free[:j] + free[j + 1:]

    walk: Iterable = iter([((), tuple(range(1, n + 1)))])
    for bad in banned[:n - tail]:
        walk = level(walk, bad)
    return _with_tails(walk, lambda free: [
        order for order in permutations(free) if not any(map(contains, ends, order))])


def _cycle_count(perm: Sequence[int]) -> int:
    """The number of cycles of a permutation of 1..n; unlike cycle_decompose
    it does not check that perm is one."""
    seen = bytearray(len(perm) + 1)
    count = 0
    for start in range(1, len(perm) + 1):
        if seen[start]:
            continue
        count += 1
        x = start
        while not seen[x]:
            seen[x] = 1
            x = perm[x - 1]
    return count


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


def cycle_words(cycle: Cycle) -> tuple[str, ...]:
    """The k distinct word presentations of a k-cycle (all rotations of
    its orbit word)."""
    k = len(cycle)
    return tuple(as_word(cycle[i:] + cycle[:i]) for i in range(k))


# ---------------------------------------------------------------------------
# Gergonne draws and menage seatings
# ---------------------------------------------------------------------------


def enumerate_gergonne(q: GergonneQuery) -> Iterator[tuple[int, ...]]:
    """All winning k-subsets for a Gergonne query: consecutive chosen
    positions at least m+1 apart (also around the wrap for circular).

    Adding m*j to the j-th entry (j from 0) of each k-subset of
    {1..n - m(k-1)} is a bijection onto the k-subsets of {1..n} with those
    gaps, and keeps lexicographic order; only the wrap is a filter."""
    n, k, m = q.n, q.k, q.m
    if k > n:
        return
    _guard_walk(_choose_upto(n, k), k, f"C(n,k) subsets with n={n}, k={k}")
    draws = combinations(range(1, n - m * (k - 1) + 1), k)
    if m:
        draws = (tuple(map(add, c, range(0, m * k, m))) for c in draws)
    if q.circular and k >= 2:
        draws = (s for s in draws if s[0] + n - s[-1] >= m + 1)
    yield from draws


def enumerate_menage(n: int) -> Iterator[tuple[int, ...]]:
    """Solutions of the reduced menage problem: women fixed in the odd
    seats, men placed by a bijection f with f(i) never i (own partner on
    her right) nor i+1 cyclically (next partner on her left)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    _guard_permutations(n)
    yield from _avoiding(n, [(i, i % n + 1) for i in range(1, n + 1)])
