"""The "stirling" suite: the Stirling transition matrices of
`poly_identities` and its factorial-basis expansions."""

from __future__ import annotations

from typing import Optional

from .. import counting as ct
from .. import poly_identities as poly
from . import Range, Thunk, _holds


def falling_roundtrip_failure(size: int) -> Optional[int]:
    """First n < size: x^n to the falling basis and back is not x^n."""
    return next(
        (n for n in range(size)
         if poly.power_from_falling(poly.power_to_falling(n))
         != poly.trim([0] * n + [1])),
        None,
    )


CHECKS: list[tuple[str, Thunk]] = [
    ("transition matrices invert (12x12)", lambda: _holds(poly.stirling_inverse_check(12))),
    ("power <-> falling roundtrip", Range(falling_roundtrip_failure, (11,), (16,))),
    ("factorial-basis expansions match cycle counts", lambda: _holds(all(
        poly.rising_expansion_coeffs(n)[k] == ct.cycle_count(n, k)
        and poly.falling_expansion_coeffs(n)[k] == ct.stirling1_signed(n, k)
        for n in range(13) for k in range(n + 1)))),
]
