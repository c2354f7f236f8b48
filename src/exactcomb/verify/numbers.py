"""The "numbers" suite: totients, primality, the classical Mobius function
and the toy RSA cycle of `number_theory`."""

from __future__ import annotations

from typing import Iterable, Optional

from .. import number_theory as nt
from . import Range, Thunk, _holds


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


CHECKS: list[tuple[str, Thunk]] = [
    ("totient golden", lambda: _holds(
        nt.euler_phi(30) == 8 and nt.euler_phi(100) == 40
        and nt.euler_phi(125) == 100 and nt.euler_phi(210) == 48)),
    ("product formula vs divisor-classification count to 2000",
     Range(totient_failure, (2000,), (100_000,))),
    ("product formula vs literal scan to 600", lambda: _holds(
        all(nt.euler_phi(n) == nt.phi_scan(n) for n in range(1, 600)))),
    ("trial division vs phi(p) = p - 1 to 2000", Range(primality_failure, (2000,))),
    ("classical mu golden", lambda: _holds(
        nt.mobius_classical(6) == 1 and nt.mobius_classical(4) == 0
        and nt.mobius_classical(1) == 1)),
    # d = 27 is the inverse of e = 3 mod phi(55) = 40, for the roundtrip row below
    ("inverse and power golden", lambda: _holds(
        nt.mod_inverse(3, 20) == 7 and nt.mod_pow(19, 7, 25) == 14
        and nt.rsa_keygen(5, 11, 3).d == 27)),
    ("raw demo n=25", lambda: _holds(
        nt.mod_pow(14, 3, 25) == 19 and nt.mod_pow(19, 7, 25) == 14)),
    ("keypair (5,11,3) full roundtrip", Range(
        rsa_roundtrip_failure, (((5, 11, 3),),),
        (((5, 11, 3), (7, 11, 7), (13, 17, 5), (41, 71, 11), (47, 59, 3)),))),
]
