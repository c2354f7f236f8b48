"""Counting formulas against their brute-force oracles and each other."""

import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import combinations, islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exactcomb.counting as ct
import exactcomb.enumeration as en
from exactcomb.exact_core import CACHE_SIZE, factorial
from exactcomb.recursive_matrix import binomial_matrix
from exactcomb.series import FormalSeries, convolve, geometric_series

# ---------------------------------------------------------------------------
# type vectors
# ---------------------------------------------------------------------------


def test_type_vector_validation():
    tv = ct.TypeVector(4, (0, 2))
    assert tv.nu == (0, 2) and tv.block_count == 2
    assert ct.TypeVector(4, (0, 2, 0, 0)) == tv  # trailing zeros trimmed
    with pytest.raises(ValueError, match=r"^type weights sum to 5, expected n=4$"):
        ct.TypeVector(4, (1, 2))
    with pytest.raises(ValueError, match=r"^multiplicities must be nonnegative$"):
        ct.TypeVector(2, (-2, 2))
    with pytest.raises(ValueError, match=r"^type vector longer than n=1$"):
        ct.TypeVector(1, (0, 1))
    assert ct.TypeVector.of_sizes([1, 2, 3]) == ct.TypeVector(6, (1, 1, 1))
    with pytest.raises(ValueError, match=r"^sizes must be positive$"):
        ct.TypeVector.of_sizes([2, 0])


def test_iter_type_vectors_counts_integer_partitions():
    # number of type vectors of weight n = number of integer partitions
    golden = {0: 1, 1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22}
    for n, want in golden.items():
        tvs = list(ct.iter_type_vectors(n))
        assert len(tvs) == len(set(tvs)) == want
    assert list(ct.iter_type_vectors(0)) == [ct.TypeVector(0, ())]


# ---------------------------------------------------------------------------
# binomial family
# ---------------------------------------------------------------------------


def test_binomial_golden():
    assert ct.binomial(3, 2) == 3
    assert all(ct.binomial(n, 0) == 1 for n in range(10))
    assert ct.binomial(6, 3) == 20 == sum(1 for _ in combinations(range(6), 3))
    assert ct.binomial(4, 9) == 0


def pairs(n_max, k_over):
    """(n, k) with n <= n_max and 0 <= k <= n + k_over."""
    return st.integers(0, n_max).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, n + k_over))
    )


# row n of the Pascal triangle (rule 1 + t) holds C(n, k), and <n, k> is
# C(n+k-1, k) for n >= 1; row 0 of any rule matrix holds <0, k>
PASCAL = binomial_matrix(302)


@given(pairs(300, 2))  # k = 0 and k > n are both drawn
@settings(deadline=None)
def test_fast_routes_match_reference_sweeps(pair):
    n, k = pair
    assert ct.binomial(n, k) == PASCAL.entry(n, k)
    assert ct.multiset_coeff(n, k) == PASCAL.entry(n + k - 1 if n else 0, k)


@given(pairs(5000, 0))
@settings(deadline=None)
def test_legendre_product_matches_math_comb(pair):
    n, k = pair
    assert ct._binomial_legendre(n, k) == math.comb(n, k)


@given(pairs(5000, 0))
@settings(deadline=None)
def test_falling_route_matches_math_comb(pair):
    n, k = pair
    assert ct._binomial_falling(n, min(k, n - k)) == math.comb(n, k)


def test_binomial_second_route_by_size(monkeypatch):
    # n below the factorial table's bound, or j^2 <= 40 n, takes the falling
    # factorial, anything larger Legendre (verify's row 200 the first, and
    # cli-oneshot's C(2000, ~1000) the second); either way a wrong second
    # route is caught
    falling = [(9, 4), (100, 50), (200, 100), (255, 127), (10**4, 500), (10**4, 9500)]
    legendre = [(1000, 500), (2000, 1000)]
    monkeypatch.setattr(ct, "_binomial_falling", lambda n, j: 0)
    for n, k in falling:
        with pytest.raises(ArithmeticError):
            ct.binomial.__wrapped__(n, k)
    for n, k in legendre:
        assert ct.binomial.__wrapped__(n, k) == math.comb(n, k)
    monkeypatch.undo()
    monkeypatch.setattr(ct, "_binomial_legendre", lambda n, k: 0)
    for n, k in legendre:
        with pytest.raises(ArithmeticError):
            ct.binomial.__wrapped__(n, k)
    for n, k in falling:
        assert ct.binomial.__wrapped__(n, k) == math.comb(n, k)


def test_binomial_small_k_needs_no_sieve():
    # C(10^7, 3) sieved every prime up to 10^7 (about 58 MB) before the
    # falling-factorial route; C(n, 2) for n = 1.2e9 slots would need gigabytes
    tracemalloc.start()
    try:
        assert ct.binomial.__wrapped__(10**7, 3) == math.comb(10**7, 3)
        assert ct.binomial.__wrapped__(10**7, 10**7 - 3) == math.comb(10**7, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    slots = 50000 * 49999 // 2
    assert ct.graph_count("graph", 50000, 2) == math.comb(slots, 2)


def test_prime_sieve_grows_safely_under_threads(monkeypatch):
    # 8 threads grow one fresh sieve to interleaved limits, switching often;
    # each must get exactly the primes up to its own n
    monkeypatch.setattr(ct, "_SIEVE", (1, []))
    ns = list(range(2, 4000, 37))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            got = list(pool.map(ct._primes_upto, ns, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    primes = [p for p in range(2, 4000) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    for n, answer in zip(ns, got):
        assert answer == [p for p in primes if p <= n]


def test_falling_rising_golden():
    injections = list(en.enumerate_functions(2, 5, "injective"))
    assert ct.falling_factorial(5, 2) == 20 == len(injections)
    assert ct.rising_factorial(7, 0) == 1
    # flagpole recursion L_k = (n+k-1) L_{k-1}, L_0 = 1
    def flagpoles(n, k):
        L = 1
        for i in range(1, k + 1):
            L = (n + i - 1) * L
        return L

    assert ct.rising_factorial(3, 2) == 12 == flagpoles(3, 2)
    for n in range(7):
        for k in range(7):
            assert ct.rising_factorial(n, k) == flagpoles(n, k)


def test_multiset_golden():
    assert ct.multiset_coeff(3, 4) == 15
    assert all(ct.multiset_coeff(n, 0) == 1 for n in range(1, 8))
    assert ct.multiset_coeff(0, 3) == 0
    assert ct.multiset_coeff(2, 3) == 4
    for n in range(6):
        for k in range(7):
            assert ct.multiset_coeff(n, k) == len(list(en.enumerate_multisets(n, k)))


def test_gentile_golden():
    assert ct.gentile_coeff(2, 3, 3) == 7
    assert ct.gentile_coeff(3, 2, 7) == 0  # k > n p
    assert ct.gentile_coeff(1, 4, 2) == 6 == ct.binomial(4, 2)
    with pytest.raises(ValueError):
        ct.gentile_coeff(0, 3, 1)


def test_gentile_matches_series_power():
    for p in (1, 2, 3):
        for n in range(6):
            rule = FormalSeries([1] * (p + 1) + [0] * 12)
            power = rule**n
            for k in range(13):
                assert ct.gentile_coeff(p, n, k) == power.coeff_at(k)


def test_gentile_converges_to_multiset():
    # once the per-box bound reaches k it stops binding; gentile_coeff then
    # answers by multiset_coeff, so the rule's power is the second route
    for n in range(6):
        for k in range(7):
            for p in range(max(k, 1), k + 3):
                power = FormalSeries([1] * (p + 1)) ** n
                assert ct.gentile_coeff(p, n, k) == ct.multiset_coeff(n, k) == power.coeff_at(k)


def test_gentile_with_k_at_most_p_builds_no_row():
    # rows of the table for p hold n p + 1 entries: 20,000,001 here
    tracemalloc.start()
    try:
        assert ct.gentile_coeff(10**7, 2, 1) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_gentile_tables_are_kept_for_eight_p():
    # (1 + t + ... + t^p)^4 at t^(p+1): 20 values of p through a cache of 8
    ct._gentile_table.cache_clear()
    want = {p: (FormalSeries([1] * (p + 1) + [0]) ** 4).coeff_at(p + 1) for p in range(1, 21)}
    for p in range(1, 21):
        assert ct.gentile_coeff(p, 4, p + 1) == want[p], p
    assert ct._gentile_table.cache_info().currsize == 8
    for p in (1, 5, 12):  # evicted: a new table gives the same answer
        assert ct.gentile_coeff(p, 4, p + 1) == want[p], p


def test_miller_check_passes_on_the_rule_powers():
    for p in range(1, 8):
        row = [1]
        for n in range(151):
            ct._gentile_check(p, row, n)
            row = convolve((1,) * (p + 1), row + [0] * p)


@pytest.mark.parametrize("p", range(1, 8))
def test_miller_check_fails_on_every_entry_made_wrong(p):
    table = ct._gentile_table.__wrapped__(p)
    for n in (3, 40):
        row = table[n]
        label = rf"gentile row\({p},{n}\)"
        for k in range(len(row)):
            wrong = list(row)
            wrong[k] += 1
            with pytest.raises(ArithmeticError, match=label):
                ct._gentile_check(p, wrong, n)
        for wrong in (row + [0], row[:-1]):
            with pytest.raises(ArithmeticError, match=label):
                ct._gentile_check(p, wrong, n)


def test_a_wrong_row_below_the_top_fails_the_top_row_check():
    # row 17 off by one at column 5 makes every later row off by one there
    # (g_0 = 1), so the check of row 60 sees it and keeps none of the rows
    table = ct._gentile_table.__wrapped__(3)
    step = table._step

    def wrong(prev, m):
        row = step(prev, m)
        if m == 17:
            row[5] += 1
        return row

    table._step = wrong
    with pytest.raises(ArithmeticError, match=r"gentile row\(3,60\)"):
        table[60]
    assert table._rows == [[1]]
    table._step = step
    assert table[60] == list((FormalSeries([1] * 4 + [0] * 177) ** 60).nums)


def test_gentile_occupancy_oracle():
    # direct occupancy enumeration: distributions with at most p per box
    for p in (1, 2, 3):
        for n in range(4):
            for k in range(7):
                count = sum(
                    1
                    for occ in product(range(p + 1), repeat=n)
                    if sum(occ) == k
                )
                assert ct.gentile_coeff(p, n, k) == count


def _occupancy_count(n, tup):
    # functions from an n-set onto boxes with prescribed occupancies
    k = len(tup)
    return sum(
        1
        for f in product(range(k), repeat=n)
        if tuple(f.count(i) for i in range(k)) == tup
    )


def test_multinomial_golden():
    assert ct.multinomial(4, [2, 1, 1]) == 12 == _occupancy_count(4, (2, 1, 1))
    assert ct.multinomial(5, [5]) == 1
    assert ct.multinomial(3, [1, 1, 1]) == 6 == factorial(3)
    assert ct.multinomial(4, [2, 1]) == 0  # parts do not sum to n
    assert ct.multinomial(3, [4, -1]) == 0  # they sum to n, but one is negative


# ---------------------------------------------------------------------------
# partitions and Bell
# ---------------------------------------------------------------------------


def test_stirling2_golden():
    assert ct.stirling2(4, 2) == 7
    assert all(ct.stirling2(n, n) == 1 for n in range(8))
    parts = list(en.enumerate_set_partitions(5, k=3))
    assert ct.stirling2(5, 3) == 25 == len(parts)


def test_bell_golden():
    assert ct.bell(4) == 15
    assert ct.bell(0) == 1
    assert ct.bell(7) == 877 == len(list(en.enumerate_set_partitions(7)))


def test_aitken_rows_match_the_binomial_sum():
    # B_m = sum_k C(m-1, k) B_k, the recursion the triangle replaced
    bells = [1]
    for m in range(1, 301):
        bells.append(sum(math.comb(m - 1, k) * b for k, b in enumerate(bells)))
    assert list(islice(ct._aitken_bells(), 301)) == bells


def test_warm_bell_skips_its_check(monkeypatch):
    # the Stirling row sum that checks B_n runs once per n, not per call
    calls = []
    stirling2 = ct.stirling2
    monkeypatch.setattr(ct, "stirling2", lambda n, k: calls.append(n) or stirling2(n, k))
    ct.bell.cache_clear()
    assert ct.bell(23) == 44152005855084346
    assert calls
    calls.clear()
    assert ct.bell(23) == 44152005855084346
    assert calls == []


def _partitions_of_type(tv):
    return [p for p in en.enumerate_set_partitions(tv.n) if en.partition_type(p) == tv]


def test_faa_di_bruno_golden():
    pairings = _partitions_of_type(ct.TypeVector(4, (0, 2)))
    assert ct.faa_di_bruno(ct.TypeVector(4, (0, 2))) == 3 == len(pairings)
    assert ct.faa_di_bruno(ct.TypeVector(5, (5,))) == 1
    typed = _partitions_of_type(ct.TypeVector(6, (1, 1, 1)))
    assert ct.faa_di_bruno(ct.TypeVector(6, (1, 1, 1))) == 60 == len(typed)


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------


def test_cycle_count_golden():
    assert all(ct.cycle_count(n, n) == 1 for n in range(8))
    assert ct.cycle_count(4, 1) == 6 == factorial(3)
    oracle = sum(1 for _ in en.enumerate_permutations(4, cycles=2))
    assert ct.cycle_count(4, 2) == 11 == oracle


def test_stirling1_signed_golden():
    # expand x(x-1)(x-2) by hand: 2x - 3x^2 + x^3
    from exactcomb.poly_identities import falling_poly

    assert falling_poly(3) == (0, 2, -3, 1)
    assert ct.stirling1_signed(3, 2) == -3
    assert all(ct.stirling1_signed(n, n) == 1 for n in range(8))
    assert ct.stirling1_signed(4, 1) == -6 == -ct.cycle_count(4, 1)


def _permutations_of_type(tv):
    return [f for f in en.enumerate_permutations(tv.n)
            if ct.TypeVector.of_sizes([len(c) for c in en.cycle_decompose(f)]) == tv]


def test_cauchy_golden():
    oracle = len(_permutations_of_type(ct.TypeVector(4, (0, 2))))
    assert ct.cauchy_count(ct.TypeVector(4, (0, 2))) == 3 == oracle
    assert ct.cauchy_count(ct.TypeVector(6, (6,))) == 1
    three_cycles = _permutations_of_type(ct.TypeVector(3, (0, 0, 1)))
    assert ct.cauchy_count(ct.TypeVector(3, (0, 0, 1))) == 2 == len(three_cycles)


def test_derangement_golden():
    assert ct.derangement(3) == 2
    assert ct.derangement(1) == 0
    assert ct.derangement(0) == 1  # convention: the empty permutation
    oracle = sum(1 for _ in en.enumerate_permutations(4, derangement_only=True))
    assert ct.derangement(4) == 9 == oracle


def test_single_number_recursions_keep_only_their_answers():
    # the loops keep two values, so only the cached answer stays live; a
    # table of every d_m up to d_5000 would hold about 16 MB, of U_m up to
    # U_2000 about 2.3 MB
    for fn, n in ((ct.derangement, 5000), (ct.touchard, 2000)):
        fn.cache_clear()
        tracemalloc.start()
        try:
            answer = fn(n)
            live, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert live < 2 * sys.getsizeof(answer), fn.__name__


def test_derangement_fixed_golden():
    assert all(ct.derangement_fixed(n, n) == 1 for n in range(7))
    by_fix = lambda n, k: sum(
        1 for p in en.enumerate_permutations(n) if len(en.fixed_points(p)) == k
    )
    assert ct.derangement_fixed(4, 1) == 8 == by_fix(4, 1)
    assert ct.derangement_fixed(4, 2) == 6 == by_fix(4, 2)
    assert ct.derangement_fixed(3, 9) == 0


def test_derangement_fixed_sums():
    for n in range(10):
        assert sum(ct.derangement_fixed(n, k) for k in range(n + 1)) == factorial(n)
        assert ct.derangement_fixed(n, 0) == ct.derangement(n)


def test_surjection_golden():
    oracle = len(list(en.enumerate_functions(3, 2, "surjective")))
    assert ct.surjection_count(3, 2) == 6 == oracle
    assert ct.surjection_count(2, 5) == 0  # pigeonhole
    assert ct.surjection_count(4, 2) == 14 == 2**4 - 2


def test_surjections_factor_through_partitions():
    # a surjection is a kernel partition into n blocks plus a bijection
    # onto the codomain, so the two implementations must satisfy
    # surjections(k, n) = S(k, n) * n!
    for k in range(9):
        for n in range(9):
            assert ct.surjection_count(k, n) == ct.stirling2(k, n) * factorial(n)


# ---------------------------------------------------------------------------
# integer solutions and Gergonne
# ---------------------------------------------------------------------------


def _bounded_tuples(n, k, bounds):
    return [
        t
        for t in product(range(k + 1), repeat=n)
        if sum(t) == k and all(x >= a for x, a in zip(t, bounds))
    ]


def test_lower_bound_solutions():
    assert ct.lower_bound_solutions(3, 5, (1, 1, 1)) == 6 == len(
        _bounded_tuples(3, 5, (1, 1, 1))
    )
    assert ct.lower_bound_solutions(4, 3, (0, 0, 0, 0)) == ct.multiset_coeff(4, 3)
    assert ct.lower_bound_solutions(2, 3, (2, 2)) == 0
    with pytest.raises(ValueError):
        ct.lower_bound_solutions(3, 5, (1, 1))
    for bounds in product(range(3), repeat=3):
        for k in range(7):
            assert ct.lower_bound_solutions(3, k, bounds) == len(
                _bounded_tuples(3, k, bounds)
            )


def test_gergonne_linear():
    q = ct.GergonneQuery(5, 2, 1)
    count, prob = ct.gergonne(q)
    assert count == 6 == ct.binomial(4, 2)
    assert prob == Fraction(6, 10)
    assert list(en.enumerate_gergonne(q)) == [
        (1, 3), (1, 4), (1, 5), (2, 4), (2, 5), (3, 5),
    ]
    for n in range(1, 9):
        assert ct.gergonne(ct.GergonneQuery(n, 1, 2))[1] == 1  # k=1 always wins


def test_gergonne_circular():
    q = ct.GergonneQuery(4, 2, 1, circular=True)
    assert ct.gergonne(q)[0] == 2
    assert list(en.enumerate_gergonne(q)) == [(1, 3), (2, 4)]
    q8 = ct.GergonneQuery(8, 3, 1, circular=True)
    assert ct.gergonne(q8)[0] == 16 == len(list(en.enumerate_gergonne(q8)))


def test_gergonne_query_rejects_negatives():
    for n, k, m in [(-1, 0, 1), (5, -1, 1), (5, 2, -1)]:
        with pytest.raises(ValueError, match=r"^n, k, m must be nonnegative$"):
            ct.GergonneQuery(n, k, m)


def test_gergonne_circular_validation():
    with pytest.raises(ValueError, match=r"^circular queries support only minimum gap m = 1$"):
        ct.GergonneQuery(8, 3, 2, circular=True)
    for n in (7, 0):
        with pytest.raises(ValueError, match=r"^circular queries need an even seat count n >= 2$"):
            ct.GergonneQuery(n, 0, 1, circular=True)
    # the linear query has neither circular restriction
    assert ct.GergonneQuery(7, 3, 2).m == 2


# ---------------------------------------------------------------------------
# menage
# ---------------------------------------------------------------------------


def test_touchard_golden():
    assert ct.touchard(3) == 1 == sum(1 for _ in en.enumerate_menage(3))
    assert ct.touchard(4) == 2 == sum(1 for _ in en.enumerate_menage(4))
    assert ct.touchard(5) == 13 == sum(1 for _ in en.enumerate_menage(5))
    assert sum(1 for _ in en.enumerate_menage(2)) == 0 == ct.touchard(2)
    assert ct.menage_count(3) == 12 == 2 * factorial(3) * 1
    with pytest.raises(ValueError):
        ct.touchard(1)


def _full_table_seatings(n):
    # the unreduced problem: 2n labelled chairs in a circle, sexes must
    # alternate, couple i = (woman i, man n+i) never adjacent
    from itertools import permutations as iperm

    seats = 2 * n
    count = 0
    for arr in iperm(range(seats)):
        if any((arr[i] < n) == (arr[(i + 1) % seats] < n) for i in range(seats)):
            continue
        if any(
            arr[(i + 1) % seats] == arr[i] + n or arr[i] == arr[(i + 1) % seats] + n
            for i in range(seats)
        ):
            continue
        count += 1
    return count


def test_menage_full_table_oracle():
    # the 2 * n! * U_n formula against a raw scan of every seating
    for n in (2, 3, 4):
        assert ct.menage_count(n) == _full_table_seatings(n)


def test_touchard_routes_agree():
    # the recurrence against the sum with ratio-carried binomials
    assert [ct._touchard_recurrence(n) for n in range(2, 401)] == [
        ct._touchard_sum(n) for n in range(2, 401)]
    # the sum against its printed form, C(2n-k, k) + C(2n-k-1, k-1) by math.comb
    for n in range(2, 61):
        printed = sum(
            (-1) ** k * (math.comb(2 * n - k, k) + (math.comb(2 * n - k - 1, k - 1) if k else 0))
            * factorial(n - k)
            for k in range(n + 1))
        assert ct._touchard_sum(n) == printed
    for n in range(2, 8):
        assert ct._touchard_recurrence(n) == sum(1 for _ in en.enumerate_menage(n))


def test_a_broken_touchard_step_raises(monkeypatch):
    # U_5 read one too large: U_6's division by 4 still comes out whole, as
    # 86, but U_7's by 5 does not
    u6 = ct.touchard(6)
    step = ct._touchard_step
    monkeypatch.setattr(ct, "_touchard_step", lambda m, *last: step(m, *last) + (m == 5))
    assert ct._touchard_recurrence(6) == 86 == u6 + 6
    with pytest.raises(ArithmeticError) as raised:
        ct._touchard_recurrence(7)
    assert str(raised.value) == (
        "internal inconsistency: touchard recurrence(7) is non-integer 3112/5")
    ct.touchard.cache_clear()
    with pytest.raises(ArithmeticError, match="touchard recurrence"):
        ct.touchard(9)


# ---------------------------------------------------------------------------
# birthday
# ---------------------------------------------------------------------------


def test_birthday_probability():
    assert ct.birthday_probability(1) == 0
    assert ct.birthday_probability(400) == 1  # pigeonhole
    assert ct.birthday_probability(23) > Fraction(1, 2)
    assert ct.birthday_probability(22) < Fraction(1, 2)
    # tiny year: exact value by enumerating functions
    days, k = 4, 2
    collides = sum(
        1 for f in en.enumerate_functions(k, days) if len(set(f)) < k
    )
    assert ct.birthday_probability(k, days) == Fraction(collides, days**k)
    assert ct.birthday_probability(0) == 0
    with pytest.raises(ValueError, match=r"^k must be >= 0$"):
        ct.birthday_probability(-1)
    with pytest.raises(ValueError, match=r"^days must be >= 1$"):
        ct.birthday_probability(2, 0)


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------


def test_graph_count():
    # edge-subset oracle: graphs on 3 vertices = subsets of the 3 pairs
    pairs3 = list(combinations(range(3), 2))
    assert ct.graph_count("graph", 3) == 8 == 2 ** len(pairs3)
    assert ct.graph_count("digraph", 2) == 16 == 2**4
    assert ct.graph_count("loopless_digraph", 3) == 2**6
    assert ct.graph_count("graph", 4, 2) == ct.binomial(6, 2)
    assert ct.graph_count("multigraph", 3, 2) == 6 == ct.multiset_coeff(3, 2)
    assert ct.graph_count("multidigraph", 2, 3) == ct.multiset_coeff(4, 3)
    assert ct.graph_count("loopless_multidigraph", 2, 3) == ct.multiset_coeff(2, 3)
    with pytest.raises(ValueError):
        ct.graph_count("multigraph", 3)  # infinite family without k
    with pytest.raises(ValueError):
        ct.graph_count("hypergraph", 3)


# ---------------------------------------------------------------------------
# alternating convolution
# ---------------------------------------------------------------------------


def test_alternating_convolution_cases():
    assert ct.alternating_convolution(2, 2, 1) == 0
    assert ct.alternating_convolution(3, 1, 2) == 1 == ct.binomial(2, 2)
    assert ct.alternating_convolution(1, 3, 2) == 3 == ct.multiset_coeff(2, 2)
    assert ct.alternating_convolution(2, 2, 0) == 1


def test_alternating_convolution_series_oracle():
    # coefficient of t^k in (1-t)^n * (1 + t + t^2 + ...)^m, by raw series
    order = 10
    for n in range(5):
        for m in range(5):
            minus = FormalSeries([1, -1] + [0] * (order - 1)) ** n
            plus = geometric_series(order) ** m
            prod = minus * plus
            for k in range(order + 1):
                assert ct.alternating_convolution(n, m, k) == prod.coeff_at(k)


# ---------------------------------------------------------------------------
# cross-check labels
# ---------------------------------------------------------------------------


def test_check_labels_name_the_record_on_failure(monkeypatch):
    q, tv = ct.GergonneQuery(6, 2, 1), ct.TypeVector(3, (1, 1))
    ct.gergonne.cache_clear()
    monkeypatch.setattr(ct, "lower_bound_solutions", lambda n, k, bounds: 0)
    with pytest.raises(ArithmeticError) as raised:
        ct.gergonne(q)
    assert str(raised.value) == (
        f"internal inconsistency in gergonne({q!r}): routes gave (10, 0)")
    # 3! read as 7: the quotient by 1! * 2! is no longer whole
    monkeypatch.setattr(ct, "factorial", lambda n: 7 if n == 3 else factorial(n))
    for fn in (ct.faa_di_bruno, ct.cauchy_count):
        with pytest.raises(ArithmeticError) as raised:
            fn(tv)
        assert str(raised.value) == (
            f"internal inconsistency: {fn.__name__}({tv!r}) is non-integer 7/2")


def test_passing_checks_format_no_label(monkeypatch):
    def no_repr(self):
        raise AssertionError("a label was formatted")

    for record in (ct.GergonneQuery, ct.TypeVector):
        monkeypatch.setattr(record, "__repr__", no_repr)
    assert ct.gergonne(ct.GergonneQuery(6, 2, 1))[0] == 10
    assert ct.gergonne(ct.GergonneQuery(8, 3, 1, circular=True))[0] == 16
    assert ct.faa_di_bruno(ct.TypeVector(4, (0, 2))) == 3
    assert ct.cauchy_count(ct.TypeVector(4, (0, 2))) == 3


# ---------------------------------------------------------------------------
# memoised families
# ---------------------------------------------------------------------------

# the families memoised beside binomial, multiset_coeff and bell
MEMOISED = (ct.derangement, ct.derangement_fixed, ct.surjection_count, ct.gergonne,
            ct.touchard, ct.graph_count, ct.alternating_convolution)


def test_memoised_families_are_bounded():
    for fn in MEMOISED:
        assert fn.cache_parameters()["maxsize"] == CACHE_SIZE, fn.__name__
    assert ct._gentile_table.cache_parameters()["maxsize"] == 8


@pytest.mark.parametrize("family, args, route", [
    ("touchard", (9,), "_touchard_sum"),
    ("derangement_fixed", (9, 2), "derangement"),
    ("gergonne", (ct.GergonneQuery(9, 3, 1),), "lower_bound_solutions"),
    # sum_{h <= 3} (-1)^h C(5, h) = -4, so one more per term moves the sum
    ("alternating_convolution", (5, 2, 3), "multiset_coeff"),
])
def test_a_disagreement_raises_on_every_call_and_is_never_cached(
        monkeypatch, family, args, route):
    fn, original = getattr(ct, family), getattr(ct, route)
    fn.cache_clear()
    monkeypatch.setattr(ct, route, lambda *a: original(*a) + 1)
    for _ in range(2):
        with pytest.raises(ArithmeticError, match=rf"^internal inconsistency in {family}\("):
            fn(*args)
        assert fn.cache_info().currsize == 0
    monkeypatch.undo()
    answer = fn(*args)
    assert fn.cache_info().currsize == 1
    assert fn.__wrapped__(*args) == answer


def test_memoised_families_under_threads():
    # 8 threads, switching often, ask the MEMOISED families for the same
    # arguments in different orders: each gets the single-thread answer
    calls = (
        [(ct.touchard, (n,)) for n in range(2, 120, 5)]
        + [(ct.derangement, (n,)) for n in range(0, 120, 7)]
        + [(ct.surjection_count, (k, n)) for k in range(0, 12, 3) for n in range(6)]
        + [(ct.gergonne, (ct.GergonneQuery(n, k, m),))
           for n in range(4, 16, 3) for k in range(1, 4) for m in range(3)]
        + [(ct.gergonne, (ct.GergonneQuery(n, 3, 1, circular=True),)) for n in (8, 10)]
        + [(ct.alternating_convolution, (n, m, k))
           for n in range(4) for m in range(4) for k in range(0, 9, 2)]
        + [(ct.derangement_fixed, (n, k)) for n in range(0, 30, 4) for k in range(0, n + 1, 3)]
        + [(ct.graph_count, (kind, n, k)) for kind in ct.GRAPH_KINDS for n in (3, 5)
           for k in (None, 2) if k is not None or "multi" not in kind]
    )
    expected = [fn.__wrapped__(*args) for fn, args in calls]
    assert {fn for fn, _ in calls} == set(MEMOISED)
    for fn in MEMOISED:
        fn.cache_clear()

    def ask(i):
        # thread i starts at its own eighth of the calls; odd threads go backwards
        order = list(range(len(calls)))
        order = order[i * len(order) // 8:] + order[:i * len(order) // 8]
        return [(j, calls[j][0](*calls[j][1])) for j in (order[::-1] if i % 2 else order)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            answers = [answer for part in pool.map(ask, range(8), timeout=120) for answer in part]
    finally:
        sys.setswitchinterval(interval)
    assert len(answers) == 8 * len(calls)
    for j, answer in answers:
        assert answer == expected[j], calls[j]


def test_gentile_tables_under_threads():
    # 8 threads, switching often, ask for 12 values of p through a cache of
    # 8 tables, so tables are evicted and built again while others read them
    calls = [(p, n, k) for n in range(2, 31, 7) for p in range(1, 13)
             for k in range(p + 1, n * p + 1, 3 * p)]
    tables = {p: ct._gentile_table.__wrapped__(p) for p in range(1, 13)}
    expected = [tables[p][n][k] for p, n, k in calls]
    ct._gentile_table.cache_clear()

    def ask(i):
        # thread i starts at its own eighth of the calls; odd threads go backwards
        order = list(range(len(calls)))
        order = order[i * len(order) // 8:] + order[:i * len(order) // 8]
        return [(j, ct.gentile_coeff(*calls[j])) for j in (order[::-1] if i % 2 else order)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            answers = [answer for part in pool.map(ask, range(8), timeout=120) for answer in part]
    finally:
        sys.setswitchinterval(interval)
    assert len(answers) == 8 * len(calls)
    for j, answer in answers:
        assert answer == expected[j], calls[j]
