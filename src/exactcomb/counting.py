"""Closed forms and recursions for every counting family, all exact.

Where two independent computation routes exist (closed form vs recursion,
or two printed formulas), both are evaluated on an argument's first call
and compared by `exact_core.agree`, under the cross-check contract stated
there.  Answers are memoized per process, so a repeated argument runs
neither route again.  A `RowTable` holds a recursion only when one row
answers many requests; an answer that is one number has only its
`lru_cache`:

- `stirling2`, `cycle_count` and `gentile_coeff` (for the 8 most recently
  used p; two threads asking for a new p at once may each build its table,
  and the cache keeps one) read triangle rows from a `RowTable`, each with
  its own lock, so building one large table never stalls another family;
- `binomial`, `multiset_coeff`, `bell`, `derangement`, `derangement_fixed`,
  `surjection_count`, `gergonne`, `touchard`, `graph_count` and
  `alternating_convolution` keep their answers in an `lru_cache` bounded
  at `CACHE_SIZE` entries each, and the recursions under `bell`,
  `derangement` and `touchard` keep one triangle row or two values.

A disagreement raises and is never cached: an `lru_cache` keeps only
returned values and a `RowTable` only the rows of an extension whose
steps and check all returned, so the next call with that argument runs its
routes again.  The other families (`multinomial`, `faa_di_bruno`,
`cauchy_count`, `menage_count`, `birthday_probability` and the
factorials) are products or quotients over the cached values and
factorials, computed on every call; `multinomial`'s quotient of factorials
agrees with a product of binomials.

`binomial` runs two cheap routes: `math.comb` and, for n below
`exact_core.FACTORIAL_TABLE_SIZE` or j = min(k, n - k) with j^2 <= 40 n,
the falling factorial (n)_j over j! (a quotient of certified table
entries below the bound, a product tree above it), else the prime-power
product of Legendre's formula and Kummer's theorem, over primes from a
shared sieve.
`multiset_coeff` adds the rising factorial to those two (the same
product as the falling factorial when binomial takes that route).  The
rows of `recursive_matrix.binomial_matrix` and `multiset_matrix`, powers
of the rules 1 + t and 1/(1 - t), are the reference routes that the tests
and `verify` check both against.  `gentile_coeff` answers k <= p by
`multiset_coeff`, since the bound p then does not bind.

One row step here is a polynomial product that does not call
`series.convolve`: `_cycle_row`, which multiplies by (x + m - 1).  It is
the second route of a check whose other side `convolve` builds:
`poly_identities.rising_expansion_coeffs` agrees the cycle rows with
`rising_poly`, itself a `convolve` product, so cycle rows built by
`convolve` would run the same arithmetic on both sides.

Gentile's rows are `convolve` rows: row m is row m - 1 times the rule
g = 1 + t + ... + t^p.  Each extension of a table certifies its new top
row n by Miller's power recurrence for f = g^n (`_gentile_check`), an
identity of the power rather than a second coding of the product.  The top
row is enough: call row m the first wrong row, and c its lowest wrong
column, off by e.  Each later row is g times the one below it, so row
n > m is still off by e g_0^(n-m) = e at column c, and the check of row n
fails.  The caveat: errors made in different rows could cancel there.
`verify`'s "rows match closed forms" still compares `gentile_coeff` with
the rows of `gentile_matrix`.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate, chain, compress, islice, repeat
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from .exact_core import (CACHE_SIZE, FACTORIAL_TABLE_SIZE, Record, RowTable, agree,
                          exact_quotient, factorial, falling_factorial, fraction)

if TYPE_CHECKING:
    from fractions import Fraction


class TypeVector(Record):
    """Multiplicity vector of a partition or permutation type on an n-set.

    ``nu[i-1]`` is the number of blocks (or cycles) of size i; the weights
    must satisfy sum(i * nu_i) == n.  Trailing zeros are trimmed so that
    equality is structural.
    """

    __slots__ = ("n", "nu")

    def __init__(self, n: int, nu: Sequence[int]):
        nu = tuple(nu)
        while nu and nu[-1] == 0:
            nu = nu[:-1]
        if any(v < 0 for v in nu):
            raise ValueError("multiplicities must be nonnegative")
        if len(nu) > n:
            raise ValueError(f"type vector longer than n={n}")
        weight = sum(i * v for i, v in enumerate(nu, start=1))
        if weight != n:
            raise ValueError(f"type weights sum to {weight}, expected n={n}")
        super().__init__(n, nu)

    @classmethod
    def of_sizes(cls, sizes: Sequence[int]) -> "TypeVector":
        """Build from an explicit list of block/cycle sizes."""
        n = sum(sizes)
        nu = [0] * n
        for s in sizes:
            if s <= 0:
                raise ValueError("sizes must be positive")
            nu[s - 1] += 1
        return cls(n, nu)

    @property
    def block_count(self) -> int:
        return sum(self.nu)


def iter_type_vectors(n: int) -> Iterator[TypeVector]:
    """All type vectors of weight n (i.e. integer partitions of n)."""

    def parts(remaining: int, max_part: int, acc: list[int]):
        if remaining == 0:
            yield tuple(acc)
            return
        for p in range(min(remaining, max_part), 0, -1):
            acc.append(p)
            yield from parts(remaining - p, p, acc)
            acc.pop()

    for sizes in parts(n, n, []):
        yield TypeVector.of_sizes(sizes)


# ---------------------------------------------------------------------------
# binomial and factorial-like coefficients
# ---------------------------------------------------------------------------


def rising_factorial(n: int, k: int) -> int:
    """<n>_k = n (n+1) ... (n+k-1) = (n+k-1)_k; the empty product is 1."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return falling_factorial(n + k - 1, k)


# (limit, primes <= limit); a bigger sieve replaces it in one assignment, so
# a reader sees the old pair or the new one and needs no lock.  Each call
# answers from the pair it built or read, so a race between two growths can
# cost a rebuild but never a wrong prime list.
_SIEVE: tuple[int, list[int]] = (1, [])


def _primes_upto(n: int) -> list[int]:
    """The primes <= n, sliced from the shared sieve (grown by doubling)."""
    global _SIEVE
    limit, primes = _SIEVE
    if n > limit:
        limit = max(n, 2 * limit)
        flags = bytearray([1]) * (limit + 1)
        flags[:2] = b"\0\0"
        for p in range(2, math.isqrt(limit) + 1):
            if flags[p]:
                flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
        primes = list(compress(range(limit + 1), flags))
        _SIEVE = (limit, primes)
    return primes[: bisect_right(primes, n)]


def _binomial_legendre(n: int, k: int) -> int:
    """C(n, k) for 0 <= k <= n as prod p^e over primes p <= n, where by
    Legendre's formula e = sum_i floor(n/p^i) - floor(k/p^i) - floor((n-k)/p^i)
    (Kummer: the number of carries when adding k and n-k in base p)."""
    factors = []
    for p in _primes_upto(n):
        e, q = 0, p
        while q <= n:
            e += n // q - k // q - (n - k) // q
            q *= p
        if e:
            factors.append(p**e)
    return math.prod(factors)


def _binomial_falling(n: int, j: int) -> int:
    """C(n, j) as the falling factorial (n)_j over j!."""
    return falling_factorial(n, j) // factorial(j)


# Below the factorial table's bound the falling factorial over j! is a
# quotient of table entries: 0.1-1.6 us, against 3-11 us for the Legendre
# product, which walks every prime <= n, so it is the second route for every
# such n.  Above it the falling factorial is a product tree, and j! beyond
# the table is agreed with math.factorial.  Measured with CPython 3.11 on one
# x86-64 core, the tree is the faster route up to j = 246, 253, 369, 654,
# 2123, 3516 at n = 500, 10^3, 3*10^3, 10^4, 10^5, 3*10^5, over 6.4 sqrt(n)
# for n >= 3000: so it is the second route there while j^2 <= 40 n.
_FALLING_MAX_SQUARE_OVER_N = 40


@lru_cache(maxsize=CACHE_SIZE)
def binomial(n: int, k: int) -> int:
    """C(n, k), zero when k > n; math.comb agrees with the falling factorial
    over j! for n below the factorial table's bound or small
    j = min(k, n - k), else with the Legendre product."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if k < 0 or k > n:
        return 0
    j = min(k, n - k)
    if n < FACTORIAL_TABLE_SIZE or j * j <= _FALLING_MAX_SQUARE_OVER_N * n:
        second = _binomial_falling(n, j)
    else:
        second = _binomial_legendre(n, k)
    return agree(("binomial", n, k), math.comb(n, k), second)


@lru_cache(maxsize=CACHE_SIZE)
def multiset_coeff(n: int, k: int) -> int:
    """<n, k>, the number of k-multisets on an n-set: the rising factorial
    over k! against C(n+k-1, k) by binomial's two routes.  When binomial
    takes its falling-factorial route, (n+k-1)_k over k! is the rising
    factorial's product in the other order, so only two of the three routes
    are independent there."""
    if n < 0 or k < 0:
        raise ValueError("n and k must be >= 0")
    if n == 0:
        return 1 if k == 0 else 0
    via_rising = rising_factorial(n, k) // factorial(k)
    return agree(("multiset_coeff", n, k), via_rising, binomial(n + k - 1, k))


def _gentile_check(p: int, row: list[int], n: int) -> None:
    """Certify row n of the table for p as the coefficients of f = g^n,
    g = 1 + t + ... + t^p, by J. C. P. Miller's power recurrence: g f' = n g' f
    gives k f_k = (n + 1) W_k - k S_k, with S_k = f_{k-1} + ... + f_{k-p} and
    W_k = 1 f_{k-1} + ... + p f_{k-p}.  With f_0 = 1 and n p + 1 entries, the
    checked entries below k fix f_k, so the row passes only if it is g^n.  S
    and W slide by one entry per k over the row's own entries, with no second
    row kept: each k adds f_{k-1} and drops f_{k-1-p}."""
    label = ("gentile row", p, n)
    agree(label, len(row), n * p + 1)
    agree(label, row[0], 1)
    s = w = 0
    dropped = chain(repeat(0, p), row)
    for k, (added, old, entry) in enumerate(zip(row, dropped, islice(row, 1, None)), 1):
        s += added - old
        w += s - p * old
        f = exact_quotient(label, (n + 1) * w - k * s, k)
        # `agree` only on a mismatch, to raise: a call per entry took the
        # check of row 5 for p = 10^6 (5,000,001 entries) from 2.0 s to 3.2 s
        # (CPython 3.11, x86-64)
        if f != entry:
            agree(label, f, entry)


# coeff-session draws p from 2..5, `verify` uses p = 2 and a CLI call asks for
# one p, so no benchmark workload evicts a table
@lru_cache(maxsize=8)
def _gentile_table(p: int) -> RowTable:
    """The rows of c^p(n, k) for one p: row m is row m - 1, padded with p
    zeros, times the rule 1 + t + ... + t^p, by `series.convolve` (imported
    here, so no other family loads `series`), and each extension's top row
    is certified by `_gentile_check`.  Two threads that ask for a new p at
    the same moment may each build a table; both are correct, and the cache
    keeps one."""
    from .series import convolve

    rule = (1,) * (p + 1)
    return RowTable([1], lambda prev, m: convolve(rule, prev + [0] * p),
                    check=lambda row, n: _gentile_check(p, row, n))


def gentile_coeff(p: int, n: int, k: int) -> int:
    """c^p(n, k): k indistinguishable balls in n boxes, at most p per box.
    When k <= p no box can hold more than k balls, so the bound does not
    bind and c^p(n, k) is `multiset_coeff(n, k)`, with its checked routes;
    otherwise it is read from row n of the table for p."""
    if p < 1:
        raise ValueError("occupancy bound p must be >= 1")
    if n < 0 or k < 0:
        raise ValueError("n and k must be >= 0")
    if k <= p:
        return multiset_coeff(n, k)
    if k > n * p:
        return 0
    return _gentile_table(p)[n][k]


def multinomial(n: int, parts: Sequence[int]) -> int:
    """n! / prod(h_i!), or 0 unless the parts sum to n: the quotient of
    factorials, which must be whole, agrees with the product of binomials
    C(h_1 + ... + h_i, h_i)."""
    if any(h < 0 for h in parts):
        return 0
    if sum(parts) != n:
        return 0
    label = ("multinomial", n, *parts)
    quotient = exact_quotient(label, factorial(n), math.prod(map(factorial, parts)))
    product, top = 1, 0
    for h in parts:
        top += h
        product *= binomial(top, h)
    return agree(label, quotient, product)


# ---------------------------------------------------------------------------
# partitions: Stirling 2nd kind, Bell, partition types
# ---------------------------------------------------------------------------

# S(m, j) = S(m-1, j-1) + j S(m-1, j)
def _stirling2_row(prev: list[int], m: int) -> list[int]:
    prev = prev + [0]
    return [0] + [prev[j - 1] + j * prev[j] for j in range(1, m + 1)]


_STIRLING2 = RowTable([1], _stirling2_row)


def stirling2(n: int, k: int) -> int:
    """S(n, k), k-block set partitions, via the bad-element recursion."""
    if n < 0 or k < 0:
        raise ValueError("n and k must be >= 0")
    row = _STIRLING2[n]
    return row[k] if k < len(row) else 0


def _aitken_bells() -> Iterator[int]:
    """B_0, B_1, ... by Aitken's triangle, additions only: row m of the
    triangle opens with the last entry of row m-1, each next entry is its
    left neighbour plus the entry above that neighbour, and B_m opens row m.
    Only the last row is kept."""
    row = [1]
    while True:
        yield row[0]
        row = list(accumulate(row, initial=row[-1]))


@lru_cache(maxsize=CACHE_SIZE)
def bell(n: int) -> int:
    """B_n, all set partitions of an n-set, by Aitken's triangle against the
    Stirling row sum."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return agree(("bell", n), next(islice(_aitken_bells(), n, None)),
                 sum(stirling2(n, k) for k in range(n + 1)))


def faa_di_bruno(tv: TypeVector) -> int:
    """Number of set partitions of the given type:
    n! / prod((i!)^nu_i) / prod(nu_i!)."""
    den = 1
    for i, v in enumerate(tv.nu, start=1):
        den *= factorial(i) ** v * factorial(v)
    return exact_quotient(("faa_di_bruno", tv), factorial(tv.n), den)


# ---------------------------------------------------------------------------
# permutations: cycle counts, Cauchy coefficients, derangements
# ---------------------------------------------------------------------------

# c(m, j) = c(m-1, j-1) + (m-1) c(m-1, j)
def _cycle_row(prev: list[int], m: int) -> list[int]:
    prev = prev + [0]
    return [0] + [prev[j - 1] + (m - 1) * prev[j] for j in range(1, m + 1)]


_CYCLES = RowTable([1], _cycle_row)


def cycle_count(n: int, k: int) -> int:
    """Permutations of an n-set with exactly k cycles (unsigned Stirling
    numbers of the first kind)."""
    if n < 0 or k < 0:
        raise ValueError("n and k must be >= 0")
    row = _CYCLES[n]
    return row[k] if k < len(row) else 0


def stirling1_signed(n: int, k: int) -> int:
    """s(n, k) = (-1)^(n-k) C(n, k): falling-factorial expansion coefficients."""
    value = cycle_count(n, k)
    return -value if (n - k) % 2 else value


def cauchy_count(tv: TypeVector) -> int:
    """Number of permutations of the given cycle type:
    n! / prod(i^nu_i) / prod(nu_i!)."""
    den = 1
    for i, v in enumerate(tv.nu, start=1):
        den *= i**v * factorial(v)
    return exact_quotient(("cauchy_count", tv), factorial(tv.n), den)


@lru_cache(maxsize=CACHE_SIZE)
def derangement(n: int) -> int:
    """d_n, fixed-point-free permutations, via d_m = (m-1)(d_{m-2} + d_{m-1})
    keeping the last two; d_0 := 1 so that d_{n,n} = C(n,n) * d_0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    before, last = 0, 1  # d_{-1}, which d_1 = 0 * (d_{-1} + d_0) ignores, and d_0
    for m in range(1, n + 1):
        before, last = last, (m - 1) * (before + last)
    return last


@lru_cache(maxsize=CACHE_SIZE)
def derangement_fixed(n: int, k: int) -> int:
    """d_{n,k}, permutations with exactly k fixed points (two routes)."""
    if n < 0 or k < 0:
        raise ValueError("n and k must be >= 0")
    if k > n:
        return 0
    via_choose = binomial(n, k) * derangement(n - k)
    # n!/k! * sum_{h=k}^{n} (-1)^(h-k) / (h-k)!   (termwise integral)
    term = falling_factorial(n, n - k)  # n!/k! / (h-k)!, carried from h to h+1
    total = 0
    for h in range(k, n + 1):
        total += -term if (h - k) % 2 else term
        term //= h - k + 1
    return agree(("derangement_fixed", n, k), via_choose, total)


@lru_cache(maxsize=CACHE_SIZE)
def surjection_count(k: int, n: int) -> int:
    """Surjections from a k-set onto an n-set, by the alternating sum
    over image sizes (0^0 counts as 1)."""
    if k < 0 or n < 0:
        raise ValueError("k and n must be >= 0")
    total = 0
    for j in range(n + 1):
        term = binomial(n, j) * j**k
        total += -term if (n - j) % 2 else term
    return total


# ---------------------------------------------------------------------------
# integer solutions, Gergonne, menage
# ---------------------------------------------------------------------------


def lower_bound_solutions(n: int, k: int, bounds: Sequence[int]) -> int:
    """Solutions of x_1 + ... + x_n = k with x_i >= bounds[i]."""
    if n < 1:
        raise ValueError("need at least one variable")
    if len(bounds) != n:
        raise ValueError(f"expected {n} bounds, got {len(bounds)}")
    if any(a < 0 for a in bounds):
        raise ValueError("bounds must be nonnegative")
    rest = k - sum(bounds)
    if rest < 0:
        return 0
    return multiset_coeff(n, rest)


class GergonneQuery(Record):
    """A deck query: n cards (or seats), draw size k, minimum gap m.

    Circular queries model seats on a round table; only m = 1 with an
    even seat count is supported there.
    """

    __slots__ = ("n", "k", "m", "circular")

    def __init__(self, n: int, k: int, m: int, circular: bool = False):
        if n < 0 or k < 0 or m < 0:
            raise ValueError("n, k, m must be nonnegative")
        if circular:
            if m != 1:
                raise ValueError("circular queries support only minimum gap m = 1")
            if n % 2 or n < 2:
                raise ValueError("circular queries need an even seat count n >= 2")
        super().__init__(n, k, m, circular)


@lru_cache(maxsize=CACHE_SIZE)
def gergonne(q: GergonneQuery) -> tuple[int, Fraction]:
    """Winning k-subset count and its probability among all k-subsets."""
    n, k, m = q.n, q.k, q.m
    if q.circular:
        count = binomial(n - k, k) if n - k >= 0 else 0
        if k >= 1 and n - k - 1 >= 0:
            count += binomial(n - k - 1, k - 1)
        if n - k > 0:  # count == n C(n-k, k) / (n-k), compared in integers
            agree(("gergonne", q), count * (n - k), n * binomial(n - k, k))
    else:
        top = n - m * k + m
        count = binomial(top, k) if top >= 0 else 0
        # same thing through the bounded-equation reduction
        if k >= 1 and n >= k:
            bounds = [0] + [m] * (k - 1) + [0]
            agree(("gergonne", q), count, lower_bound_solutions(k + 1, n - k, bounds))
    total = binomial(n, k)
    prob = fraction(count, total) if total else fraction(0)
    return count, prob


# (m-2) U_m = m(m-2) U_{m-1} + m U_{m-2} - 4(-1)^m  (OEIS A000179), from
# U_1, U_2 = -1, 0; the division by m - 2 must come out whole
def _touchard_step(m: int, before: int, last: int) -> int:
    num = m * (m - 2) * last + m * before + (4 if m % 2 else -4)
    return exact_quotient(("touchard recurrence", m), num, m - 2)


def _touchard_recurrence(n: int) -> int:
    """U_n for n >= 2 by the recurrence, keeping the last two values."""
    before, last = -1, 0
    for m in range(3, n + 1):
        before, last = last, _touchard_step(m, before, last)
    return last


def _touchard_sum(n: int) -> int:
    """U_n = sum_k (-1)^k circ(k) (n-k)!, where circ(k) = C(2n-k, k) +
    C(2n-k-1, k-1) = 2n C(2n-k, k) / (2n-k) counts k-subsets of a 2n-cycle
    with no two adjacent; terms beyond k = n vanish."""
    total = 0
    choose = 1  # C(2n-k, k), carried from k to k+1
    fact = factorial(n)  # (n-k)!, carried from k to k+1
    for k in range(n + 1):
        term = 2 * n * choose // (2 * n - k) * fact
        total += -term if k % 2 else term
        choose = choose * (2 * n - 2 * k) * (2 * n - 2 * k - 1) // ((2 * n - k) * (k + 1))
        fact //= n - k or 1
    return total


@lru_cache(maxsize=CACHE_SIZE)
def touchard(n: int) -> int:
    """U_n, the reduced menage count: the recurrence agrees with the
    alternating circular-selection sum."""
    if n < 2:
        raise ValueError("menage seatings need n >= 2 couples")
    return agree(("touchard", n), _touchard_recurrence(n), _touchard_sum(n))


def menage_count(n: int) -> int:
    """Full menage count 2 * n! * U_n (both sexes, women in any order)."""
    return 2 * factorial(n) * touchard(n)


def birthday_probability(k: int, days: int = 365) -> Fraction:
    """Exact probability that k people share at least one birthday."""
    if days < 1:
        raise ValueError("days must be >= 1")
    if k < 0:
        raise ValueError("k must be >= 0")
    return 1 - fraction(falling_factorial(days, k), days**k)


# ---------------------------------------------------------------------------
# graph families
# ---------------------------------------------------------------------------

GRAPH_KINDS = (
    "graph",
    "digraph",
    "loopless_digraph",
    "multigraph",
    "multidigraph",
    "loopless_multidigraph",
)

# edge or arrow slots on n vertices; a multigraph kind has those of its kind less "multi"
_SLOT_COUNTS = {
    "graph": lambda n: binomial(n, 2),
    "digraph": lambda n: n * n,
    "loopless_digraph": lambda n: n * (n - 1),
}


@lru_cache(maxsize=CACHE_SIZE)
def graph_count(kind: str, n: int, k: Optional[int] = None) -> int:
    """Count (di/multi)graphs on n labelled vertices, optionally with
    exactly k edges/arrows.  Multigraph kinds require k: without it the
    family is infinite."""
    if kind not in GRAPH_KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {GRAPH_KINDS}")
    if n < 0:
        raise ValueError("n must be >= 0")
    if k is not None and k < 0:
        raise ValueError("k must be >= 0")
    slots = _SLOT_COUNTS[kind.replace("multi", "")](n)
    if "multi" in kind:
        if k is None:
            raise ValueError(f"{kind} on {n} vertices is an infinite family; pass k")
        return multiset_coeff(slots, k)
    if k is None:
        return 2**slots
    return binomial(slots, k)


# ---------------------------------------------------------------------------
# alternating binomial/multiset convolution
# ---------------------------------------------------------------------------


@lru_cache(maxsize=CACHE_SIZE)
def alternating_convolution(n: int, m: int, k: int) -> int:
    """Coefficient of t^k in (1-t)^n / (1-t)^m, as the convolution
    sum_h (-1)^h C(n,h) <m, k-h>, checked against the collapsed form."""
    if n < 0 or m < 0 or k < 0:
        raise ValueError("n, m, k must be >= 0")
    total = 0
    for h in range(min(n, k) + 1):
        term = binomial(n, h) * multiset_coeff(m, k - h)
        total += -term if h % 2 else term
    if n > m:
        expected = binomial(n - m, k) * (-1 if k % 2 else 1)
    else:
        expected = multiset_coeff(m - n, k)
    return agree(("alternating_convolution", n, m, k), total, expected)
