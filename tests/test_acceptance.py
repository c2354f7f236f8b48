"""Acceptance suite: every `verify` suite, the same checks at larger
ranges, and the oracles that no suite runs.

Everything here is exact integer/rational equality.
"""

import random
from collections import Counter

import numpy as np
import pytest

import exactcomb.counting as ct
import exactcomb.enumeration as en
import exactcomb.number_theory as nt
import exactcomb.verify as vf


@pytest.mark.parametrize("suite", list(vf.SUITES))
def test_suite(suite):
    failed = [check for check in vf.SUITES[suite]() if not check.ok]
    assert not failed, failed


def test_criterion_01_table_fidelity():
    assert vf.printed_rows_failure("binomial", 4, range(4)) is None
    assert vf.printed_rows_failure("multiset", 4, range(4)) is None
    assert vf.printed_rows_failure("gentile p=2", 6, range(4)) is None
    assert [[ct.stirling2(n, k) for k in range(5)] for n in range(5)] == [
        [1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 1, 1, 0, 0],
        [0, 1, 3, 1, 0],
        [0, 1, 7, 6, 1],
    ]


def test_criterion_02_oracle_equivalence():
    assert vf.functions_failure(6) is None
    assert vf.subsets_failure(17) is None
    assert vf.multisets_failure(6, 8) is None
    assert vf.partitions_failure(11) is None
    assert vf.permutations_failure(9) is None
    assert vf.linear_draws_failure(13) is None
    assert vf.circular_draws_failure(13) is None
    # families that no suite counts by enumeration
    for p in (1, 2, 3):
        for n in range(1, 5):
            for k in range(8):
                rhos = en.enumerate_multisets(n, k)
                bounded = sum(1 for rho in rhos if max(rho, default=0) <= p)
                assert bounded == ct.gentile_coeff(p, n, k), (p, n, k)
    for n in range(5):
        for k in range(1, 4):
            occupancy = Counter(
                tuple(f.count(i) for i in range(1, k + 1))
                for f in en.enumerate_functions(n, k)
            )
            for h, count in occupancy.items():
                assert count == ct.multinomial(n, h), (n, h)
    for n in range(11):
        types = Counter(map(en.partition_type, en.enumerate_set_partitions(n)))
        assert set(types) == set(ct.iter_type_vectors(n))
        assert all(count == ct.faa_di_bruno(tv) for tv, count in types.items())
    for n in range(9):
        perms = list(en.enumerate_permutations(n))
        types = Counter(map(en.permutation_type, perms))
        assert all(count == ct.cauchy_count(tv) for tv, count in types.items())
        assert n == 0 or sum(not en.fixed_points(p) for p in perms) == ct.derangement(n)
    for n in range(5):
        edge_sets = sum(1 for _ in en.enumerate_subsets(ct.binomial(n, 2)))
        assert ct.graph_count("graph", n) == edge_sets


def test_criterion_03_errata_regressions():
    assert vf.errata_oracle_failure([4, 5, 6]) is None


def test_criterion_04_generating_function_identities():
    assert vf.closed_form_failure(13, 12) is None
    assert vf.convolution_failure(vf.MATRICES, 13, 12) is None


def test_criterion_05_composition_coefficients():
    assert vf.faa_failure(seed=2024, trials=20, order=8, bound=4) is None


def test_criterion_06_mobius_suite():
    assert vf.boolean_mobius_failure(11) is None
    assert vf.divisor_mobius_failure(500) is None
    assert vf.inversion_failure(seed=77, trials=50, max_size=10) is None
    assert vf.mobius_route_failure(seed=78, trials=50, max_size=14) is None


def test_criterion_07_sieve():
    assert vf.derangement_sieve_failure(8) is None
    assert vf.random_sieve_failure(
        seed=123, trials=20, max_universe=1000, max_sets=8
    ) is None


def test_criterion_08_menage():
    assert vf.menage_seating_failure(6) is None
    assert vf.menage_count_failure(9) is None


def test_criterion_09_stirling_inversion():
    assert vf.falling_roundtrip_failure(16) is None


def _coprime_count(n):
    """Totatives of n by numpy's gcd, an oracle independent of the library."""
    return int(np.count_nonzero(
        np.gcd(np.arange(1, n + 1, dtype=np.int64), np.int64(n)) == 1
    ))


def test_criterion_10_number_theory():
    assert vf.totient_failure(100_000) is None
    # the literal gcd scan: dense to 3000, sampled above
    rng = random.Random(42)
    for n in [*range(1, 3001), *(rng.randint(3001, 100_000) for _ in range(300))]:
        assert _coprime_count(n) == nt.euler_phi(n), n
    # the classic demo values, modulus 25 = 5^2
    assert nt.rsa_encrypt(25, 3, 14) == 19
    assert nt.rsa_decrypt(25, 7, 19) == 14
    keys = [(5, 11, 3), (7, 11, 7), (13, 17, 5), (41, 71, 11), (47, 59, 3)]
    assert all(p * q <= 3000 for p, q, _ in keys)
    assert vf.rsa_roundtrip_failure(keys) is None


def test_criterion_12_surjections():
    assert vf.surjection_filter_failure(7, 6) is None
    assert vf.surjection_inversion_failure(5, 7) is None


def test_verify_runs_the_legendre_binomial_route(monkeypatch):
    calls = []
    legendre = ct._binomial_legendre
    monkeypatch.setattr(ct, "_binomial_legendre",
                        lambda n, k: calls.append((n, k)) or legendre(n, k))
    ct.binomial.cache_clear()
    assert all(check.ok for check in vf.suite_counting())
    assert (200, 100) in calls
    # a wrong Legendre product fails the check (the disagreement is caught)
    monkeypatch.setattr(ct, "_binomial_legendre", lambda n, k: legendre(n, k) + 1)
    ct.binomial.cache_clear()
    failed = [check.name for _, check in vf.run_suites(["counting"]) if not check.ok]
    ct.binomial.cache_clear()
    assert failed == ["raised ArithmeticError"]


def test_verify_numbers_checks_primality(monkeypatch):
    assert vf.primality_failure(2000) is None
    # prime powers taken for primes: the first is 4
    monkeypatch.setattr(nt, "is_prime", lambda n: len(nt.factorize(n)) == 1)
    assert vf.primality_failure(2000) == 4
    failed = [check.name for check in vf.suite_numbers() if not check.ok]
    assert failed == ["trial division vs phi(p) = p - 1 to 2000"]
