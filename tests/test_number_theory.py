import math
import random

import pytest

import exactcomb.number_theory as nt


def test_is_prime():
    primes = [2, 3, 5, 7, 11, 13, 97, 7919]
    assert all(nt.is_prime(p) for p in primes)
    assert not any(nt.is_prime(c) for c in (0, 1, 4, 9, 91, 7917))


def test_factorize_golden():
    assert nt.factorize(210) == ((2, 1), (3, 1), (5, 1), (7, 1))
    assert nt.factorize(1) == ()
    assert nt.factorize(125) == ((5, 3),)
    assert nt.factorize(100) == ((2, 2), (5, 2))
    for n in range(1, 2000):
        fac = nt.factorize(n)
        assert math.prod(p**e for p, e in fac) == n
        assert all(nt.is_prime(p) for p, _ in fac)
        assert [p for p, _ in fac] == sorted(p for p, _ in fac)


def test_euler_phi_golden():
    assert nt.euler_phi(30) == 8
    assert nt.euler_phi(1) == 1
    assert nt.euler_phi(12) == 4  # the coprimes are 1, 5, 7, 11
    assert {m for m in range(1, 13) if math.gcd(m, 12) == 1} == {1, 5, 7, 11}
    assert nt.euler_phi(100) == 40
    assert nt.euler_phi(125) == 100
    assert nt.euler_phi(210) == 48


def test_euler_phi_vs_scan():
    for n in range(1, 1201):
        assert nt.euler_phi(n) == nt.phi_scan(n)


def test_totient_counts_sieve():
    counts = nt.totient_counts(3000)
    rng = random.Random(6)
    for _ in range(50):
        n = rng.randint(1, 3000)
        assert counts[n] == nt.phi_scan(n)


def test_mobius_classical():
    assert nt.mobius_classical(6) == 1
    assert nt.mobius_classical(4) == 0
    assert nt.mobius_classical(1) == 1
    assert nt.mobius_classical(30) == -1
    # square-free sign rule, from the factorization itself
    for n in range(1, 300):
        fac = nt.factorize(n)
        if any(e > 1 for _, e in fac):
            assert nt.mobius_classical(n) == 0
        else:
            assert nt.mobius_classical(n) == (-1) ** len(fac)


def test_extended_gcd():
    rng = random.Random(15)
    for _ in range(200):
        a, b = rng.randint(-300, 300), rng.randint(-300, 300)
        g, x, y = nt.extended_gcd(a, b)
        assert a * x + b * y == g == math.gcd(a, b)


def test_mod_inverse_golden():
    assert nt.mod_inverse(3, 20) == 7
    assert nt.mod_inverse(1, 9) == 1
    assert nt.mod_inverse(5, 12) == 5  # 5*5 = 25 = 1 (mod 12)
    with pytest.raises(ValueError):
        nt.mod_inverse(4, 20)
    for n in range(2, 120):
        for x in range(1, n):
            if math.gcd(x, n) == 1:
                y = nt.mod_inverse(x, n)
                assert 0 < y < n and x * y % n == 1


def test_mod_pow():
    assert nt.mod_pow(19, 7, 25) == 14
    assert nt.mod_pow(5, 0, 9) == 1
    assert nt.mod_pow(5, 0, 1) == 0
    assert nt.mod_pow(2, 10, 1000) == 24 == 2**10 % 1000
    rng = random.Random(16)
    for _ in range(300):
        b, e, n = rng.randint(-50, 50), rng.randint(0, 40), rng.randint(1, 97)
        assert nt.mod_pow(b, e, n) == pow(b, e, n)


def test_fermat_exponent_check():
    assert nt.fermat_exponent_check(2, 2, 4, 3)
    assert nt.fermat_exponent_check(9, 5, 5, 31)
    assert nt.fermat_exponent_check(12, 3, 19, 17)
    assert nt.fermat_exponent_check(5, 2, 8, 7)
    assert nt.fermat_exponent_check(3, 1, 2, 5)  # premise fails: vacuous
    with pytest.raises(ValueError):
        nt.fermat_exponent_check(2, 2, 4, 9)


def test_fermat_random_instances():
    rng = random.Random(17)
    for p in (3, 5, 7, 11, 13, 17):
        for _ in range(40):
            a = rng.randint(1, 200)
            if a % p == 0:
                continue
            m = rng.randint(0, 30)
            n = m + (p - 1) * rng.randint(0, 5)
            assert nt.mod_pow(a, m, p) == nt.mod_pow(a, n, p)


def test_rsa_keygen_golden():
    key = nt.rsa_keygen(5, 11, 3)
    assert key.d == 27 and 3 * 27 % 40 == 1
    assert key.n == 55 and key.phi == 40
    assert key.e * key.d % key.phi == 1


def test_rsa_keygen_rejections():
    with pytest.raises(ValueError):
        nt.rsa_keygen(5, 5, 3)  # distinct primes required
    with pytest.raises(ValueError):
        nt.rsa_keygen(4, 11, 3)  # not prime
    with pytest.raises(ValueError):
        nt.rsa_keygen(5, 11, 5)  # gcd(5, 40) != 1
    with pytest.raises(ValueError):
        nt.rsa_keygen(5, 11, 41)  # e out of range


def test_rsa_raw_demo():
    # squared-prime modulus demo: n = 25, e = 3, d = 7 reproduces the
    # classic walkthrough even though keygen rejects p = q
    assert nt.rsa_encrypt(25, 3, 14) == 19
    assert nt.rsa_decrypt(25, 7, 19) == 14
    with pytest.raises(ValueError):
        nt.rsa_keygen(5, 5, 3)


def test_rsa_message_range():
    key = nt.rsa_keygen(5, 11, 3)
    with pytest.raises(ValueError):
        key.encrypt(1)
    with pytest.raises(ValueError):
        key.encrypt(55)
    with pytest.raises(ValueError):
        nt.rsa_decrypt(55, key.d, 0)


def test_rsa_roundtrip_small_keypair():
    key = nt.rsa_keygen(5, 11, 3)
    assert key.decrypt(key.encrypt(2)) == 2
    # every message, including those sharing a factor with n
    for m in range(2, key.n):
        assert key.decrypt(key.encrypt(m)) == m


def test_rsa_roundtrip_random_messages():
    key = nt.rsa_keygen(61, 53, 17)
    assert key.n == 3233
    rng = random.Random(18)
    for _ in range(100):
        m = rng.randint(2, key.n - 1)
        assert key.decrypt(key.encrypt(m)) == m
