"""Exact one-variable polynomials and the three classical bases.

Polynomials are dense integer coefficient tuples in ascending degree,
trailing zeros trimmed; the zero polynomial is the empty tuple.  The
power, rising-factorial and falling-factorial bases are tied together by
the cycle counts and the Stirling numbers, and the two Stirling
transition matrices invert each other; those facts are computed (not
assumed) here.
"""

from __future__ import annotations

from functools import reduce
from typing import Callable, Sequence

from .counting import cycle_count, falling_factorial, stirling1_signed, stirling2
from .exact_core import agree, guard
from .series import convolve

Coeffs = tuple[int, ...]


def trim(coeffs: Sequence[int]) -> Coeffs:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_mul(a: Sequence[int], b: Sequence[int]) -> Coeffs:
    """a * b by `series.convolve`, with b padded to the product's length; its
    loop runs over the terms of a, so pass the shorter operand first."""
    return trim(convolve(a, list(b) + [0] * (len(a) - 1)))


def _shifted_product(shifts: range) -> Coeffs:
    """The product of (x + s) over the shifts, expanded; none gives 1."""
    return reduce(lambda out, s: poly_mul((s, 1), out), shifts, (1,))


def rising_poly(n: int) -> Coeffs:
    """<x>_n = x (x+1) ... (x+n-1), expanded; n = 0 gives the constant 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _shifted_product(range(n))


def falling_poly(n: int) -> Coeffs:
    """(x)_n = x (x-1) ... (x-n+1), expanded; n = 0 gives the constant 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _shifted_product(range(0, -n, -1))


def _agreed_expansion(label: str, n: int, expanded: Coeffs,
                      entry: Callable[[int, int], int]) -> list[int]:
    """The expansion padded with zeros to n + 1 coefficients, agreed
    against entry(n, k) for k = 0..n."""
    padded = list(expanded) + [0] * (n + 1 - len(expanded))
    return agree(label, padded, [entry(n, k) for k in range(n + 1)])


def rising_expansion_coeffs(n: int) -> list[int]:
    """Coefficients of <x>_n in the power basis; these are the cycle
    counts C(n, k), and the expansion is cross-checked against them."""
    return _agreed_expansion(f"<x>_{n} expansion against cycle counts", n,
                             rising_poly(n), cycle_count)


def falling_expansion_coeffs(n: int) -> list[int]:
    """Coefficients of (x)_n in the power basis: the signed Stirling
    numbers s(n, k), cross-checked against the sign rule."""
    return _agreed_expansion(f"(x)_{n} expansion against s(n,k)", n,
                             falling_poly(n), stirling1_signed)


def power_to_falling(n: int) -> list[int]:
    """Coefficients S(n, 0..n) expressing x^n in the falling basis,
    verified by evaluating both sides at x = 0..n+1 (enough points to pin
    a degree-n polynomial)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    coeffs = [stirling2(n, k) for k in range(n + 1)]
    for m in range(n + 2):
        rhs = sum(coeffs[k] * falling_factorial(m, k) for k in range(n + 1))
        agree(f"x^{n} against its falling expansion at x={m}", m**n, rhs)
    return coeffs


def power_from_falling(coeffs: Sequence[int]) -> Coeffs:
    """Re-expand a falling-basis coefficient vector into the power basis."""
    out: list[int] = [0]
    for k, c in enumerate(coeffs):
        if c:
            base = falling_poly(k)
            out += [0] * (len(base) - len(out))
            for i, v in enumerate(base):
                out[i] += c * v
    return trim(out)


def stirling_inverse_check(n_max: int) -> bool:
    """Multiply the (n_max+1)-square signed and unsigned Stirling
    transition matrices both ways and compare with the identity."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    guard(n_max <= 30, "n_max capped at 30")
    size = n_max + 1
    s = [[stirling1_signed(i, j) for j in range(size)] for i in range(size)]
    big_s = [[stirling2(i, j) for j in range(size)] for i in range(size)]

    def matmul(a, b):
        return [
            [sum(a[i][h] * b[h][j] for h in range(size)) for j in range(size)]
            for i in range(size)
        ]

    identity = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    return matmul(s, big_s) == identity and matmul(big_s, s) == identity
