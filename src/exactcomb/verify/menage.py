"""The "menage" suite: Touchard's numbers and the menage count against
exhaustive seating."""

from __future__ import annotations

from itertools import permutations
from typing import Optional

from .. import counting as ct
from .. import enumeration as en
from . import Range, Thunk, _holds


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


CHECKS: list[tuple[str, Thunk]] = [
    ("U3=1 U4=2 U5=13", lambda: _holds(
        ct.touchard(3) == 1 and ct.touchard(4) == 2 and ct.touchard(5) == 13)),
    ("formula matches exhaustive seating", Range(menage_seating_failure, (6,), (10,))),
    ("full count is 2 n! U_n", Range(menage_count_failure, (5,), (6,))),
]
