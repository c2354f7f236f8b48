"""The "birthday" suite: the exact birthday probabilities."""

from __future__ import annotations

from fractions import Fraction

from .. import counting as ct
from . import Thunk, _holds


CHECKS: list[tuple[str, Thunk]] = [
    ("23 people beat a coin flip", lambda: _holds(ct.birthday_probability(23) > Fraction(1, 2))),
    ("22 people do not", lambda: _holds(ct.birthday_probability(22) < Fraction(1, 2))),
    ("edge cases", lambda: _holds(
        ct.birthday_probability(1) == 0 and ct.birthday_probability(400) == 1)),
]
