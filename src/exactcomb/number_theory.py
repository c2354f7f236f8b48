"""Factorization, the totient, the classical Mobius function, modular
arithmetic, and a toy RSA cycle.

Primality is certified by trial division (inputs are capped well below
anything that would make that slow), so every factorization here is a
proof, not a probabilistic claim.  The RSA material is a teaching
mechanism only: tiny primes, no padding, no security properties.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .exact_core import CACHE_SIZE, Record, agree, gcd, guard

TRIAL_DIVISION_BOUND = 10**12
# totient calls below this cross-check the product formula against the
# literal coprime scan on every evaluation
_PHI_SELF_CHECK_BOUND = 1000


def is_prime(n: int) -> bool:
    """Trial-division primality (certified): n is its own factorization,
    within factorize's bound."""
    return n >= 2 and factorize(n) == ((n, 1),)


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Canonical prime factorization as ((p, exponent), ...), primes
    ascending; factorize(1) is the empty product."""
    if n < 1:
        raise ValueError("n must be >= 1")
    guard(n <= TRIAL_DIVISION_BOUND, f"n={n} exceeds the trial-division bound")
    out: list[tuple[int, int]] = []
    for p in _trial_candidates():
        if p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def _trial_candidates():
    yield 2
    yield 3
    f = 5
    while True:
        yield f
        yield f + 2
        f += 6


def divisors(n: int) -> tuple[int, ...]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return tuple(sorted(divs))


def phi_scan(n: int) -> int:
    """Literal definition of the totient: scan 1..n counting coprimes."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return sum(1 for m in range(1, n + 1) if math.gcd(m, n) == 1)


@lru_cache(maxsize=CACHE_SIZE)
def euler_phi(n: int) -> int:
    """Euler's totient by the product over prime divisors,
    n * prod(1 - 1/p) carried out in integers; small arguments are
    re-counted by the literal scan as a live cross-check."""
    if n < 1:
        raise ValueError("n must be >= 1")
    result = n
    for p, _ in factorize(n):
        result = result // p * (p - 1)
    if n <= _PHI_SELF_CHECK_BOUND:
        return agree(("euler_phi", n), result, phi_scan(n))
    return result


def totient_counts(limit: int) -> list[int]:
    """counts[n] = number of 1 <= m <= n coprime to n, for all n up to
    limit, computed without factoring: classifying m in {1..n} by
    gcd(m, n) shows n = sum over divisors d of counts[n/d], and the
    table is obtained by subtracting along multiples.  This is the
    independent full-range oracle for euler_phi."""
    counts = list(range(limit + 1))
    for d in range(1, limit + 1):
        for m in range(2 * d, limit + 1, d):
            counts[m] -= counts[d]
    return counts


def mobius_classical(n: int) -> int:
    """+1 / -1 for square-free n with an even / odd number of prime
    factors, 0 when a squared prime divides n; mobius_classical(1) = 1."""
    factors = factorize(n)
    if any(e > 1 for _, e in factors):
        return 0
    return -1 if len(factors) % 2 else 1


# ---------------------------------------------------------------------------
# modular arithmetic
# ---------------------------------------------------------------------------


def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def mod_inverse(x: int, n: int) -> int:
    """The unique 0 < y < n with x*y = 1 (mod n); needs gcd(x, n) = 1.
    Negative-representative answers are normalized into 0..n-1."""
    if n < 2:
        raise ValueError("modulus must be >= 2")
    if not 0 < x < n:
        raise ValueError(f"need 0 < x < n, got x={x}, n={n}")
    g, s, _ = extended_gcd(x, n)
    if g != 1:
        raise ValueError(f"{x} is not invertible mod {n} (gcd={g})")
    return s % n


def mod_pow(base: int, exp: int, n: int) -> int:
    """base**exp mod n by square-and-multiply."""
    if exp < 0:
        raise ValueError("exponent must be >= 0")
    if n < 1:
        raise ValueError("modulus must be >= 1")
    result = 1 % n
    b = base % n
    while exp:
        if exp & 1:
            result = result * b % n
        b = b * b % n
        exp >>= 1
    return result


def fermat_exponent_check(a: int, m: int, n: int, p: int) -> bool:
    """Check one instance of the little-Fermat implication: if
    m = n (mod p-1) then a^m = a^n (mod p).  Instances whose premise
    fails hold vacuously."""
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if m < 0 or n < 0:
        raise ValueError("exponents must be >= 0")
    if (m - n) % (p - 1) != 0:
        return True  # premise fails, implication holds vacuously
    return mod_pow(a, m, p) == mod_pow(a, n, p)


# ---------------------------------------------------------------------------
# toy RSA
# ---------------------------------------------------------------------------


class RsaKeyPair(Record):
    """A toy keypair; (n, e) is public, (n, d) private, p/q/phi secret."""

    __slots__ = ("p", "q", "n", "phi", "e", "d")

    def __init__(self, p: int, q: int, n: int, phi: int, e: int, d: int):
        super().__init__(p, q, n, phi, e, d)

    def encrypt(self, m: int) -> int:
        return rsa_encrypt(self.n, self.e, m)

    def decrypt(self, c: int) -> int:
        return rsa_decrypt(self.n, self.d, c)


def rsa_keygen(p: int, q: int, e: int) -> RsaKeyPair:
    """Build a keypair from two distinct primes and a public exponent
    coprime to phi = (p-1)(q-1)."""
    if not is_prime(p) or not is_prime(q):
        raise ValueError("p and q must both be prime")
    if p == q:
        raise ValueError("p and q must be distinct (decryption needs it)")
    phi = (p - 1) * (q - 1)
    if not 1 < e < phi:
        raise ValueError(f"need 1 < e < phi={phi}")
    if gcd(e, phi) != 1:
        raise ValueError(f"e={e} is not coprime to phi={phi}")
    d = mod_inverse(e, phi)
    return RsaKeyPair(p=p, q=q, n=p * q, phi=phi, e=e, d=d)


def rsa_encrypt(n: int, e: int, m: int) -> int:
    """c = m^e mod n for a clear message 1 < m < n."""
    if not 1 < m < n:
        raise ValueError(f"message must satisfy 1 < m < n, got m={m}, n={n}")
    return mod_pow(m, e, n)


def rsa_decrypt(n: int, d: int, c: int) -> int:
    """m = c^d mod n for a dark message 0 < c < n."""
    if not 0 < c < n:
        raise ValueError(f"ciphertext must satisfy 0 < c < n, got c={c}, n={n}")
    return mod_pow(c, d, n)
