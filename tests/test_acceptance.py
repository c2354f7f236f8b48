"""Acceptance suite: every `verify` suite, each range check of a verify
row at the larger ranges that row holds, and the oracles that no suite
runs.

Everything here is exact integer/rational equality.
"""

import random
from collections import Counter

import pytest

import exactcomb.counting as ct
import exactcomb.enumeration as en
import exactcomb.number_theory as nt
import exactcomb.verify as vf
from exactcomb.verify.numbers import primality_failure


@pytest.mark.parametrize("suite", vf.SUITES)
def test_suite(suite):
    failed = [check for _, check in vf.run_suites([suite]) if not check.ok]
    assert not failed, failed


def test_range_check_at_larger_ranges(deep_range):
    fn, args = deep_range
    assert fn(*args) is None


def test_criterion_01_table_fidelity():
    assert [[ct.stirling2(n, k) for k in range(5)] for n in range(5)] == [
        [1, 0, 0, 0, 0],
        [0, 1, 0, 0, 0],
        [0, 1, 1, 0, 0],
        [0, 1, 3, 1, 0],
        [0, 1, 7, 6, 1],
    ]


def test_criterion_02_oracle_equivalence():
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
        types = Counter(ct.TypeVector.of_sizes([len(c) for c in en.cycle_decompose(f)])
                        for f in perms)
        assert all(count == ct.cauchy_count(tv) for tv, count in types.items())
        assert n == 0 or sum(not en.fixed_points(p) for p in perms) == ct.derangement(n)
    for n in range(5):
        edge_sets = sum(1 for _ in en.enumerate_subsets(ct.binomial(n, 2)))
        assert ct.graph_count("graph", n) == edge_sets


def _totients(top):
    """phi(0..top) by a multiplicative sieve: phi(m) starts at m, and each
    prime p takes away phi(m) // p from each multiple m of p.  No gcd and no
    factorization, so it shares nothing with the library's totient routes."""
    phi = list(range(top + 1))
    for p in range(2, top + 1):
        if phi[p] == p:  # untouched by any smaller prime, so p is prime
            for m in range(p, top + 1, p):
                phi[m] -= phi[m] // p
    return phi


def test_criterion_10_number_theory():
    # the sieve: dense to 3000, sampled above
    rng = random.Random(42)
    phi = _totients(100_000)
    for n in [*range(1, 3001), *(rng.randint(3001, 100_000) for _ in range(300))]:
        assert phi[n] == nt.euler_phi(n), n
    # the classic demo values, modulus 25 = 5^2
    assert nt.rsa_encrypt(25, 3, 14) == 19
    assert nt.rsa_decrypt(25, 7, 19) == 14


def test_verify_runs_the_falling_binomial_route(monkeypatch):
    # row 200 lies below the factorial table's bound, so every binomial of it
    # takes the falling route, the central one too
    calls = []
    falling = ct._binomial_falling
    monkeypatch.setattr(ct, "_binomial_falling",
                        lambda n, j: calls.append((n, j)) or falling(n, j))
    ct.binomial.cache_clear()
    assert all(check.ok for _, check in vf.run_suites(["counting"]))
    assert {(200, j) for j in range(101)} <= set(calls)
    # a falling route wrong on row 200 alone fails that check (the
    # disagreement is caught)
    monkeypatch.setattr(ct, "_binomial_falling", lambda n, j: falling(n, j) + (n == 200))
    ct.binomial.cache_clear()
    failed = [check.name for _, check in vf.run_suites(["counting"]) if not check.ok]
    ct.binomial.cache_clear()
    assert failed == ["row 200 sums to 2^200"]


def test_verify_runs_the_legendre_binomial_route(monkeypatch):
    # C(2000, 1000) and its parents lie above the factorial table's bound
    # with j^2 > 40 n, so each takes the Legendre route
    calls = []
    legendre = ct._binomial_legendre
    monkeypatch.setattr(ct, "_binomial_legendre",
                        lambda n, k: calls.append((n, k)) or legendre(n, k))
    ct.binomial.cache_clear()
    assert all(check.ok for _, check in vf.run_suites(["counting"]))
    assert sorted(calls) == [(1999, 999), (1999, 1000), (2000, 1000)]
    # a Legendre product off by one fails that check of `verify` and no other
    monkeypatch.setattr(ct, "_binomial_legendre", lambda n, k: legendre(n, k) + 1)
    ct.binomial.cache_clear()
    failed = [(suite, check.name) for suite, check in vf.run_suites(["all"]) if not check.ok]
    ct.binomial.cache_clear()
    assert failed == [("counting", "Pascal's rule at C(2000, 1000)")]


def test_verify_numbers_checks_primality(monkeypatch):
    assert primality_failure(2000) is None
    # prime powers taken for primes: the first is 4
    monkeypatch.setattr(nt, "is_prime", lambda n: len(nt.factorize(n)) == 1)
    assert primality_failure(2000) == 4
    failed = [check.name for _, check in vf.run_suites(["numbers"]) if not check.ok]
    assert failed == ["trial division vs phi(p) = p - 1 to 2000"]
