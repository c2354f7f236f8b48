"""Self-checks: every identity the library claims, run end to end.

`CHECKS` is the one table of checks: rows (suite, name, thunk) in print
order, where a thunk takes no argument and returns (ok, detail), and
`SUITES` names the suites in that order.  `run_suites` runs the checks of
the named suites, each on its own: a check that raises an Exception fails
alone, with "raised <Type>: <message>" as its detail, and every other
check still runs.  The CLI `verify` command prints one line per check and
exits nonzero if anything failed.  The "errata" suite pins values that are
frequently misprinted in hand-typed tables: it reports both the bad value
and the one the recursions and brute-force oracles agree on.

A check that runs over a range is a `*_failure` function: it takes the
range and returns the first failing case, or None (for seeded random
cases, the index of the failing trial).  Its row in `CHECKS` is the one
place that states its arguments: a `Range` holds the arguments `verify`
runs, which keep it fast, and the larger ones that the acceptance tests
run as well.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations
from typing import Callable, Iterable, Optional

from . import counting as ct
from . import enumeration as en
from . import number_theory as nt
from . import poly_identities as poly
from . import poset_mobius as pm
from .exact_core import Record, factorial, gcd
from .recursive_matrix import (
    RecursiveMatrix,
    binomial_matrix,
    gentile_matrix,
    multiset_matrix,
)
from .series import FormalSeries, _mul_schoolbook, exp_series, geometric_series


class Check(Record):
    __slots__ = ("name", "ok", "detail")

    def __init__(self, name: str, ok: bool, detail: str):
        super().__init__(name, ok, detail)


# ---------------------------------------------------------------------------
# checks over ranges and seeds
# ---------------------------------------------------------------------------


def gcd_failure(seed: int, trials: int) -> Optional[int]:
    """First of `trials` random pairs in [-500, 500], not both 0, whose gcd
    is not symmetric, positive and a divisor of both."""
    rng = random.Random(seed)
    for trial in range(trials):
        a, b = rng.randint(-500, 500), rng.randint(-500, 500)
        if a == b == 0:
            continue
        g = gcd(a, b)
        if g != gcd(b, a) or g <= 0 or a % g or b % g:
            return trial
    return None


def series_ring_failure(seed: int, trials: int) -> Optional[int]:
    """First of `trials` triples of random integer series of order 5 whose
    product is not commutative, associative or distributive over the sum."""
    rng = random.Random(seed)
    for trial in range(trials):
        x, y, z = (FormalSeries([rng.randint(-4, 4) for _ in range(6)]) for _ in range(3))
        if x * y != y * x or (x * y) * z != x * (y * z) or x * (y + z) != x * y + x * z:
            return trial
    return None


def schoolbook_power(a: FormalSeries, n: int) -> FormalSeries:
    """Reference route for a**n: n schoolbook products."""
    out = FormalSeries.one(a.order)
    for _ in range(n):
        out = _mul_schoolbook(out, a)
    return out


def schoolbook_compose(f: FormalSeries, g: FormalSeries) -> FormalSeries:
    """Reference route for f.compose(g): Horner's rule on schoolbook products."""
    n = min(f.order, g.order)
    g = g.truncate(n)
    acc = FormalSeries.zero(n)
    for c in reversed(f.coeffs[: n + 1]):
        acc = _mul_schoolbook(acc, g) + FormalSeries.one(n).scale(c)
    return acc


def random_rational_series(rng: random.Random, order: int) -> FormalSeries:
    """Coefficients p/q, |p| <= 6, 1 <= q <= 6, about a third of them zero."""
    return FormalSeries([Fraction(rng.randint(-6, 6), rng.randint(1, 6))
                         if rng.random() < 0.7 else 0 for _ in range(order + 1)])


def series_route_failure(seed: int, trials: int, order: int,
                         max_power: int) -> Optional[int]:
    """First of `trials` where a product, a power (at most `max_power`) or a
    composition of random rational series of orders up to `order` differs
    from the schoolbook route."""
    rng = random.Random(seed)
    for trial in range(trials):
        a = random_rational_series(rng, rng.randint(0, order))
        b = random_rational_series(rng, rng.randint(0, order))
        g = random_rational_series(rng, rng.randint(1, order))
        g = FormalSeries((0,) + g.coeffs[1:])
        n = rng.randint(0, max_power)
        if (a * b != _mul_schoolbook(a, b) or a**n != schoolbook_power(a, n)
                or a.compose(g) != schoolbook_compose(a, g)):
            return trial
    return None


# family: (matrix of a given order, closed form of its entries)
MATRICES = {
    "binomial": (binomial_matrix, ct.binomial),
    "multiset": (multiset_matrix, ct.multiset_coeff),
    "gentile p=2": (lambda order: gentile_matrix(2, order),
                    lambda n, k: ct.gentile_coeff(2, n, k)),
}
# the first rows of each matrix as printed in the paper's tables
PRINTED_ROWS = {
    "binomial": [[1, 0, 0, 0, 0], [1, 1, 0, 0, 0], [1, 2, 1, 0, 0], [1, 3, 3, 1, 0]],
    "multiset": [[1, 0, 0, 0, 0], [1, 1, 1, 1, 1], [1, 2, 3, 4, 5], [1, 3, 6, 10, 15]],
    "gentile p=2": [[1, 0, 0, 0, 0, 0, 0], [1, 1, 1, 0, 0, 0, 0],
                    [1, 2, 3, 2, 1, 0, 0], [1, 3, 6, 7, 6, 3, 1]],
}


def printed_rows_failure(family: str, order: int, rows: Iterable[int]) -> Optional[int]:
    """First of `rows` where the matrix of this order differs from PRINTED_ROWS."""
    printed = PRINTED_ROWS[family]
    table = MATRICES[family][0](order).table(len(printed), len(printed[0]))
    return next((n for n in rows if table[n] != printed[n]), None)


def closed_form_failure(rows: int, order: int) -> Optional[tuple]:
    """First (family, n, k), n < rows, k <= order: entry != closed form."""
    for family, (build, closed) in MATRICES.items():
        mat = build(order)
        for n in range(rows):
            for k in range(order + 1):
                if mat.entry(n, k) != closed(n, k):
                    return family, n, k
    return None


def convolution_failure(families: Iterable[str], rows: int,
                        order: int) -> Optional[tuple]:
    """First (family, i, j, k), i + j < rows: convolution != entry(i + j, k)."""
    for family in families:
        mat = MATRICES[family][0](order)
        for n in range(rows):
            for i in range(n + 1):
                for k in range(order + 1):
                    if mat.vandermonde_convolve(i, n - i, k) != mat.entry(n, k):
                        return family, i, n - i, k
    return None


# runs of three 2s and three -1s, which `series.convolve` adds as window sums
RUNS_RULE = FormalSeries([2, 2, 2, -1, -1, -1])


def matrix_route_failure(rows: int, order: int) -> Optional[tuple]:
    """First (family, n), n < rows, where row n of a matrix of this order,
    as its series or as its entries, differs from rule**n by repeated
    schoolbook products.  The families are MATRICES and RUNS_RULE."""
    builds = {family: build for family, (build, _) in MATRICES.items()}
    builds["runs 2+2t+2t^2-t^3-t^4-t^5"] = lambda order: RecursiveMatrix(RUNS_RULE, order)
    for family, build in builds.items():
        mat = build(order)
        power = FormalSeries.one(order)
        for n in range(rows):
            entries = [mat.entry(n, k) for k in range(order + 1)]
            if mat.row_series(n) != power or entries != list(power.coeffs):
                return family, n
            power = _mul_schoolbook(power, mat.rule)
    return None


def multinomial_sum_failure(ns: int, ks: int) -> Optional[tuple]:
    """First (n, k), n < ns and 1 <= k < ks, where the multinomials over the
    weak compositions of n into k parts do not sum to k^n."""
    return next(
        ((n, k) for n in range(ns) for k in range(1, ks)
         if sum(ct.multinomial(n, h) for h in en.enumerate_multisets(k, n)) != k**n),
        None,
    )


def derangement_ratio_failure(size: int) -> Optional[int]:
    """First n in 1..size-1 where d_n/n!, the alternating partial sum of
    1/e to order n, is not within 1/(n+1)! of 1/e.  1/e lies between the
    partial sums to orders size+6 and size+7, far past every tested n, so
    comparing against both brackets the true distance exactly."""
    lo = sum(Fraction((-1) ** h, factorial(h)) for h in range(size + 7))
    hi = lo + Fraction((-1) ** (size + 7), factorial(size + 7))
    for n in range(1, size):
        s_n = Fraction(ct.derangement(n), factorial(n))
        if max(abs(s_n - lo), abs(s_n - hi)) >= Fraction(1, factorial(n + 1)):
            return n
    return None


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


def faa_failure(seed: int, trials: int, order: int, bound: int) -> Optional[tuple]:
    """First (trial, n) where f(g(t)) disagrees with the sum over partition
    types; f and g are random series of `order`, coefficients in [-bound, bound]."""
    rng = random.Random(seed)
    for trial in range(trials):
        f = FormalSeries([rng.randint(-bound, bound) for _ in range(order + 1)])
        g = FormalSeries([0] + [rng.randint(-bound, bound) for _ in range(order)])
        comp = f.compose(g)
        for n in range(1, order + 1):
            rhs = Fraction(0)
            for tv in ct.iter_type_vectors(n):
                term = Fraction(ct.faa_di_bruno(tv))
                term *= factorial(tv.block_count) * f.coeff_at(tv.block_count)
                for i, v in enumerate(tv.nu, start=1):
                    term *= (factorial(i) * g.coeff_at(i)) ** v
                rhs += term
            if factorial(n) * comp.coeff_at(n) != rhs:
                return trial, n
    return None


def falling_roundtrip_failure(size: int) -> Optional[int]:
    """First n < size: x^n to the falling basis and back is not x^n."""
    return next(
        (n for n in range(size)
         if poly.power_from_falling(poly.power_to_falling(n))
         != poly.trim([0] * n + [1])),
        None,
    )


def boolean_mobius_failure(size: int) -> Optional[tuple]:
    """First (a, b) on fewer than `size` atoms: mu(a, b) != (-1)^|b - a|."""
    for n in range(size):
        lat = pm.boolean_lattice(n)
        mu = pm.mobius(lat)
        for a in lat.elements:
            for b in lat.up(a):
                if mu(a, b) != (-1) ** (len(b) - len(a)):
                    return a, b
    return None


def divisor_mobius_failure(top: int) -> Optional[int]:
    """First n <= top: mu(1, n) on the divisors != classical mu(n)."""
    return next(
        (n for n in range(1, top + 1)
         if pm.mobius(pm.divisor_poset(n))(1, n) != nt.mobius_classical(n)),
        None,
    )


def inversion_failure(seed: int, trials: int, max_size: int) -> Optional[int]:
    """First of `trials` posets that fails zeta*mu = delta or a roundtrip of
    inversion or dual inversion.  Trials alternate between random posets (at
    most `max_size` elements) and layered ones (at most `max_size` levels),
    whose Mobius values of absolute value 2 or more `delta_check` adds as
    bit planes."""
    rng = random.Random(seed)
    for trial in range(trials):
        size = rng.randint(1, max_size)
        P = layered_poset(rng, size) if trial % 2 else random_poset(rng, size)
        f = {e: Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for e in P.elements}
        if (not pm.delta_check(P) or pm.invert(P, pm.accumulate(P, f)) != f
                or pm.invert_dual(P, pm.accumulate_dual(P, f)) != f):
            return trial
    return None


def mobius_route_failure(seed: int, trials: int, max_size: int) -> Optional[int]:
    """First of `trials` posets where the bit-plane `mobius` differs from the
    frozenset interval recursion.  Trials alternate between random posets (at
    most `max_size` elements) and layered ones (at most `max_size` levels),
    whose values span several bit planes of both signs."""
    rng = random.Random(seed)
    for trial in range(trials):
        size = rng.randint(1, max_size)
        P = layered_poset(rng, size) if trial % 2 else random_poset(rng, size)
        if pm.mobius(P).table != pm._mobius_reference(P).table:
            return trial
    return None


def product_route_failure(seed: int, trials: int, max_size: int) -> Optional[tuple]:
    """First poset whose product-theorem Mobius table differs from the
    bit-plane recursion: ("product", trial) for `trials` products of two or
    three random or layered factors (at most `max_size` elements or levels
    each), then ("boolean", n) for n <= 6 and ("divisor", n) for n <= 200."""
    rng = random.Random(seed)

    def factor() -> pm.FinitePoset:
        size = rng.randint(1, max_size)
        return layered_poset(rng, size) if rng.random() < 0.5 else random_poset(rng, size)

    def cases():
        for trial in range(trials):
            P = pm.product_poset(factor(), factor())
            if trial % 2:
                P = pm.product_poset(P, factor())
            yield ("product", trial), P
        for n in range(7):
            yield ("boolean", n), pm.boolean_lattice(n)
        for n in range(1, 201):
            yield ("divisor", n), pm.divisor_poset(n)

    return next((case for case, P in cases()
                 if pm.mobius(P).table != pm._mobius_bitplane(P).table), None)


def integer_inversion_failure(seed: int, trials: int, max_size: int) -> Optional[int]:
    """First of `trials` posets (random ones, every other one times a random
    poset of at most 3 elements) where accumulation or the integer inversion
    kernel, plain or dual, differs from the `Fraction` sums for values mixing
    ints and Fractions, or integer values give a non-integer result.  The
    dual reference is plain inversion on the poset rebuilt with its order
    reversed."""
    rng = random.Random(seed)
    for trial in range(trials):
        P = random_poset(rng, rng.randint(1, max_size))
        if trial % 2:
            P = pm.product_poset(P, random_poset(rng, rng.randint(1, 3)))
        mixed = {e: rng.choice((rng.randint(-9, 9),
                                Fraction(rng.randint(-9, 9), rng.randint(1, 9))))
                 for e in P.elements}
        ints = {e: rng.randint(-9, 9) for e in P.elements}
        R = opposite_poset(P)
        for g in (mixed, ints):
            got = [pm.invert(P, g), pm.invert_dual(P, g), pm.accumulate(P, g)]
            want = [pm._invert_reference(P, g), pm._invert_reference(R, g),
                    {y: sum(g[x] for x in P.down(y)) for y in P.elements}]
            if got != want or g is ints and any(
                    type(v) is not int for f in got for v in f.values()):
                return trial
    return None


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


def _draws_failure(queries) -> Optional[ct.GergonneQuery]:
    return next(
        (q for q in queries
         if ct.gergonne(q)[0] != len(list(en.enumerate_gergonne(q)))),
        None,
    )


def linear_draws_failure(size: int) -> Optional[ct.GergonneQuery]:
    """First draw (n < size, m < 4) whose count differs from enumeration."""
    return _draws_failure(
        ct.GergonneQuery(n, k, m)
        for n in range(1, size) for k in range(n + 1) for m in range(4)
    )


def circular_draws_failure(size: int) -> Optional[ct.GergonneQuery]:
    """First circular draw (even n < size) miscounted against enumeration."""
    return _draws_failure(
        ct.GergonneQuery(n, k, 1, circular=True)
        for n in range(2, size, 2) for k in range(n + 1)
    )


def menage_seating_failure(size: int) -> Optional[int]:
    """First n in 2..size-1: U_n differs from exhaustive seating."""
    return next(
        (n for n in range(2, size)
         if ct.touchard(n) != len(list(en.enumerate_menage(n)))),
        None,
    )


def menage_count_failure(size: int) -> Optional[int]:
    """First n in 2..size-1: menage_count differs from a brute-force count
    of the seatings of n couples at a round table of 2n seats, women on
    the even or on the odd seats, men on the others, and no one next to
    their partner on either side."""
    def seatings(n: int) -> int:
        count = 0
        for first in (0, 1):
            for women in permutations(range(n)):
                for men in permutations(range(n)):
                    couple = [0] * (2 * n)  # the couple of the person on each seat
                    couple[first::2], couple[1 - first::2] = women, men
                    count += all(couple[seat - 1] != couple[seat] for seat in range(2 * n))
        return count

    return next((n for n in range(2, size) if ct.menage_count(n) != seatings(n)), None)


def totient_failure(top: int) -> Optional[int]:
    """First n <= top: product formula != divisor-classification count."""
    counts = nt.totient_counts(top)
    return next((n for n in range(1, top + 1) if nt.euler_phi(n) != counts[n]), None)


def primality_failure(top: int) -> Optional[int]:
    """First 2 <= n <= top where trial division and the totient table
    disagree on primality: n is prime iff phi(n) = n - 1."""
    counts = nt.totient_counts(top)
    return next((n for n in range(2, top + 1) if nt.is_prime(n) != (counts[n] == n - 1)),
                None)


def rsa_roundtrip_failure(keys: Iterable[tuple[int, int, int]]) -> Optional[tuple]:
    """First (p, q, e, m), over every 1 <= m < pq, failing the roundtrip."""
    for p, q, e in keys:
        key = nt.rsa_keygen(p, q, e)
        for m in range(1, key.n):
            if nt.mod_pow(m, key.e * key.d, key.n) != m:
                return p, q, e, m
    return None


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


# ---------------------------------------------------------------------------
# the table of checks
# ---------------------------------------------------------------------------


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


def _errata(fn: Callable[[], int], good: int, misprint: int) -> Thunk:
    """The check of one ERRATA row; its detail names both values, pass or fail."""
    def check() -> tuple[bool, str]:
        got = fn()
        return got == good and got != misprint, f"computed {got}; guarded misprint {misprint}"
    return check


# (suite, name, thunk) in print order; a thunk returns (ok, detail)
CHECKS: list[tuple[str, str, Thunk]] = [
    ("core", "factorial golden", lambda: _holds(
        factorial(0) == 1 and factorial(4) == 24 and factorial(12) == 479001600)),
    ("core", "factorial recursion to 200", lambda: _holds(
        all(factorial(n) == n * factorial(n - 1) for n in range(1, 201)))),
    ("core", "gcd golden", lambda: _holds(
        gcd(3, 20) == 1 and gcd(7, 0) == 7 and gcd(30, 210) == 30)),
    ("core", "gcd commutative and divides", Range(gcd_failure, (11, 200), (12, 5000))),
    ("series", "unit element", lambda: _holds(
        FormalSeries.one(4) * (a := FormalSeries([1, 2, 1, 0, 0])) == a
        == a * FormalSeries.one(4))),
    ("series", "(1+t)^3 row", lambda: _holds(
        (FormalSeries([1, 1, 0, 0]) ** 3).to_json() == ["1", "3", "3", "1"])),
    ("series", "(1-t) * geometric = 1", lambda: _holds(
        FormalSeries([1, -1, 0, 0, 0, 0]) * geometric_series(5) == FormalSeries.one(5))),
    ("series", "exp composed with 2t", lambda: _holds(
        list(map(exp_series(4).compose(FormalSeries([0, 2, 0, 0, 0])).coeff_at, range(5)))
        == [1, 2, 2, Fraction(4, 3), Fraction(2, 3)])),
    ("series", "commutative/associative/distributive",
     Range(series_ring_failure, (7, 40), (13, 200))),
    ("series", "integer kernel matches the Fraction schoolbook route",
     Range(series_route_failure, (8, 20, 7, 12))),
    ("matrix", "Pascal rows 0..3",
     Range(printed_rows_failure, ("binomial", 6, range(4)), ("binomial", 4, range(4)))),
    ("matrix", "multiset rows 0..3",
     Range(printed_rows_failure, ("multiset", 6, range(4)), ("multiset", 4, range(4)))),
    ("matrix", "occupancy-bound p=2 row 3",
     Range(printed_rows_failure, ("gentile p=2", 6, (3,)), ("gentile p=2", 6, range(4)))),
    ("matrix", "rows match closed forms to n=40",
     Range(closed_form_failure, (41, 42), (81, 82), (13, 10))),
    ("matrix", "convolutions over all splits to n=8", Range(
        convolution_failure, (("binomial",), 9, 6), (tuple(MATRICES), 13, 12),
        (tuple(MATRICES), 13, 8))),
    ("matrix", "integer rows match schoolbook rule powers to n=8",
     Range(matrix_route_failure, (9, 8))),
    ("counting", "binomial golden", lambda: _holds(
        ct.binomial(3, 2) == 3 and ct.binomial(6, 3) == 20 and ct.binomial(7, 0) == 1)),
    ("counting", "row sums are powers of two", lambda: _holds(
        all(sum(ct.binomial(n, k) for k in range(n + 1)) == 2**n for n in range(21)))),
    # 71 <= k <= 129 has j = min(k, 200 - k) with j^2 > 25 * 200, where
    # binomial's second route is the Legendre product
    ("counting", "row 200 sums to 2^200", lambda: _holds(
        sum(ct.binomial(200, k) for k in range(201)) == 2**200)),
    ("counting", "multinomial sums are k^n", Range(multinomial_sum_failure, (7, 7), (9, 8))),
    ("counting", "partition statistics agree", lambda: _holds(
        all(sum(ct.stirling2(n, k) for k in range(n + 1)) == ct.bell(n)
            == sum(ct.faa_di_bruno(tv) for tv in ct.iter_type_vectors(n))
            for n in range(11)))),
    ("counting", "permutation statistics agree", lambda: _holds(
        all(sum(ct.cycle_count(n, k) for k in range(n + 1)) == factorial(n)
            == sum(ct.cauchy_count(tv) for tv in ct.iter_type_vectors(n))
            for n in range(11)))),
    ("counting", "fixed-point counts sum to n!", lambda: _holds(
        all(sum(ct.derangement_fixed(n, k) for k in range(n + 1)) == factorial(n)
            for n in range(10)))),
    ("counting", "derangement ratio brackets 1/e",
     Range(derangement_ratio_failure, (19,), (60,))),
    ("counting", "alternating convolution cases", lambda: _holds(
        ct.alternating_convolution(2, 2, 1) == 0 and ct.alternating_convolution(3, 1, 2) == 1
        and ct.alternating_convolution(1, 3, 2) == 3)),
    ("oracles", "function counts", Range(functions_failure, (5,), (6,))),
    ("oracles", "subset counts", Range(subsets_failure, (9,), (17,))),
    ("oracles", "multiset counts", Range(multisets_failure, (5, 6), (6, 8))),
    ("oracles", "partition counts", Range(partitions_failure, (8,), (11,))),
    ("oracles", "permutation counts", Range(permutations_failure, (7,), (9,))),
    ("oracles", "graph counts on every kind", Range(graph_count_failure, (4, 4), (5, 6))),
    ("faa", "composite-derivative coefficients via partition types",
     Range(faa_failure, (99, 8, 6, 3), (2024, 20, 8, 4))),
    ("stirling", "transition matrices invert (12x12)",
     lambda: _holds(poly.stirling_inverse_check(12))),
    ("stirling", "power <-> falling roundtrip", Range(falling_roundtrip_failure, (11,), (16,))),
    ("stirling", "factorial-basis expansions match cycle counts", lambda: _holds(all(
        poly.rising_expansion_coeffs(n)[k] == ct.cycle_count(n, k)
        and poly.falling_expansion_coeffs(n)[k] == ct.stirling1_signed(n, k)
        for n in range(13) for k in range(n + 1)))),
    ("mobius", "boolean lattice closed form to n=6",
     Range(boolean_mobius_failure, (7,), (11,))),
    ("mobius", "divisor poset matches classical mu to 200",
     Range(divisor_mobius_failure, (200,), (500,))),
    ("mobius", "zeta*mu = delta and inversion roundtrips",
     Range(inversion_failure, (5, 12, 8), (77, 50, 10))),
    ("mobius", "bit-plane Mobius matches the interval recursion",
     Range(mobius_route_failure, (6, 12, 10), (78, 50, 14))),
    ("mobius", "product-theorem Mobius matches the bit-plane recursion",
     Range(product_route_failure, (7, 8, 3), (71, 40, 4))),
    ("mobius", "integer inversion matches the Fraction sum",
     Range(integer_inversion_failure, (8, 12, 8), (72, 50, 10))),
    ("sieve", "derangement families via sieve", Range(derangement_sieve_failure, (7,), (8,))),
    ("sieve", "random families: exactly-m counts by scan", Range(
        random_sieve_failure, (21, 10, 300, 6), (123, 20, 1000, 8), (31, 15, 400, 7))),
    ("gergonne", "linear draws match enumeration", Range(linear_draws_failure, (11,), (13,))),
    ("gergonne", "circular draws match enumeration",
     Range(circular_draws_failure, (11,), (13,))),
    ("menage", "U3=1 U4=2 U5=13", lambda: _holds(
        ct.touchard(3) == 1 and ct.touchard(4) == 2 and ct.touchard(5) == 13)),
    ("menage", "formula matches exhaustive seating",
     Range(menage_seating_failure, (6,), (10,))),
    ("menage", "full count is 2 n! U_n", Range(menage_count_failure, (5,), (6,))),
    ("numbers", "totient golden", lambda: _holds(
        nt.euler_phi(30) == 8 and nt.euler_phi(100) == 40
        and nt.euler_phi(125) == 100 and nt.euler_phi(210) == 48)),
    ("numbers", "product formula vs divisor-classification count to 2000",
     Range(totient_failure, (2000,), (100_000,))),
    ("numbers", "product formula vs literal scan to 600", lambda: _holds(
        all(nt.euler_phi(n) == nt.phi_scan(n) for n in range(1, 600)))),
    ("numbers", "trial division vs phi(p) = p - 1 to 2000", Range(primality_failure, (2000,))),
    ("numbers", "classical mu golden", lambda: _holds(
        nt.mobius_classical(6) == 1 and nt.mobius_classical(4) == 0
        and nt.mobius_classical(1) == 1)),
    # d = 27 is the inverse of e = 3 mod phi(55) = 40, for the roundtrip row below
    ("numbers", "inverse and power golden", lambda: _holds(
        nt.mod_inverse(3, 20) == 7 and nt.mod_pow(19, 7, 25) == 14
        and nt.rsa_keygen(5, 11, 3).d == 27)),
    ("numbers", "raw demo n=25", lambda: _holds(
        nt.mod_pow(14, 3, 25) == 19 and nt.mod_pow(19, 7, 25) == 14)),
    ("numbers", "keypair (5,11,3) full roundtrip", Range(
        rsa_roundtrip_failure, (((5, 11, 3),),),
        (((5, 11, 3), (7, 11, 7), (13, 17, 5), (41, 71, 11), (47, 59, 3)),))),
    ("birthday", "23 people beat a coin flip",
     lambda: _holds(ct.birthday_probability(23) > Fraction(1, 2))),
    ("birthday", "22 people do not",
     lambda: _holds(ct.birthday_probability(22) < Fraction(1, 2))),
    ("birthday", "edge cases", lambda: _holds(
        ct.birthday_probability(1) == 0 and ct.birthday_probability(400) == 1)),
    ("surjections", "alternating sum matches filtered enumeration",
     Range(surjection_filter_failure, (6, 5), (7, 6))),
    ("surjections", "matches inversion on the subset lattice",
     Range(surjection_inversion_failure, (5, 5), (5, 7))),
    *(("errata", f"{name} = {good}", _errata(fn, good, misprint))
      for name, fn, good, misprint in ERRATA),
    ("errata", "oracle confirms pinned values",
     Range(errata_oracle_failure, ((4,),), ((4, 5, 6),))),
]

SUITES = tuple(dict.fromkeys(suite for suite, _, _ in CHECKS))


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
        for suite, check_name, thunk in CHECKS:
            if name in ("all", suite):
                try:
                    ok, detail = thunk()
                except Exception as exc:
                    ok, detail = False, f"raised {type(exc).__name__}: {exc}"
                results.append((suite, Check(check_name, ok, detail)))
    return results


# ---------------------------------------------------------------------------
# shared helpers for checks and tests
# ---------------------------------------------------------------------------


def random_poset(rng: random.Random, size: int) -> pm.FinitePoset:
    """A random poset on 0..size-1: random edges upward, then the
    transitive closure (which is automatically antisymmetric)."""
    up = {i: {i} for i in range(size)}
    for i in range(size - 1, -1, -1):
        for j in range(i + 1, size):
            if rng.random() < 0.35:
                up[i] |= up[j]
    pairs = [(i, j) for i in range(size) for j in up[i]]
    return pm.FinitePoset(list(range(size)), pairs)


def opposite_poset(P: pm.FinitePoset) -> pm.FinitePoset:
    """P with its order reversed, built from P's up-sets by the validating
    constructor: an independent reference for the dual functions."""
    return pm.FinitePoset(P.elements, [(y, x) for x in P.elements for y in P.up(x)])


def layered_poset(rng: random.Random, levels: int) -> pm.FinitePoset:
    """A random ordinal sum of antichains: `levels` levels of 1 to 4
    elements, each element below every element of the later levels.  The
    Mobius function from the bottom level to the top one is, up to sign, the
    product of (size - 1) over the levels between, so it grows geometrically."""
    elements: list[int] = []
    pairs = []
    for _ in range(levels):
        level = range(len(elements), len(elements) + rng.randint(1, 4))
        pairs += [(x, y) for x in elements for y in level]
        elements += level
    return pm.FinitePoset(elements, pairs)


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
