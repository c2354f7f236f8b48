"""The "counting" suite: the counting families against each other, and
multinomials against enumerated compositions."""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .. import counting as ct
from .. import enumeration as en
from ..exact_core import factorial
from . import Range, Thunk, _holds


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


CHECKS: list[tuple[str, Thunk]] = [
    ("binomial golden", lambda: _holds(
        ct.binomial(3, 2) == 3 and ct.binomial(6, 3) == 20 and ct.binomial(7, 0) == 1)),
    ("row sums are powers of two", lambda: _holds(
        all(sum(ct.binomial(n, k) for k in range(n + 1)) == 2**n for n in range(21)))),
    # row 200 lies below the factorial table's bound, so binomial's second
    # route is a quotient of table entries for every k
    ("row 200 sums to 2^200", lambda: _holds(
        sum(ct.binomial(200, k) for k in range(201)) == 2**200)),
    # above that bound, with j^2 > 40 n, all three binomials take the
    # Legendre route
    ("Pascal's rule at C(2000, 1000)", lambda: _holds(
        ct.binomial(2000, 1000) == ct.binomial(1999, 999) + ct.binomial(1999, 1000))),
    ("multinomial sums are k^n", Range(multinomial_sum_failure, (7, 7), (9, 8))),
    ("partition statistics agree", lambda: _holds(
        all(sum(ct.stirling2(n, k) for k in range(n + 1)) == ct.bell(n)
            == sum(ct.faa_di_bruno(tv) for tv in ct.iter_type_vectors(n))
            for n in range(11)))),
    ("permutation statistics agree", lambda: _holds(
        all(sum(ct.cycle_count(n, k) for k in range(n + 1)) == factorial(n)
            == sum(ct.cauchy_count(tv) for tv in ct.iter_type_vectors(n))
            for n in range(11)))),
    ("fixed-point counts sum to n!", lambda: _holds(
        all(sum(ct.derangement_fixed(n, k) for k in range(n + 1)) == factorial(n)
            for n in range(10)))),
    ("derangement ratio brackets 1/e", Range(derangement_ratio_failure, (19,), (60,))),
    ("alternating convolution cases", lambda: _holds(
        ct.alternating_convolution(2, 2, 1) == 0 and ct.alternating_convolution(3, 1, 2) == 1
        and ct.alternating_convolution(1, 3, 2) == 3)),
]
