"""The "birthday" suite: the exact birthday probabilities."""

from __future__ import annotations

from fractions import Fraction

from .. import counting as ct
from . import Thunk, _holds


# (suite, name, thunk) in print order; a thunk returns (ok, detail)
CHECKS: list[tuple[str, str, Thunk]] = [
    ("birthday", "23 people beat a coin flip",
     lambda: _holds(ct.birthday_probability(23) > Fraction(1, 2))),
    ("birthday", "22 people do not",
     lambda: _holds(ct.birthday_probability(22) < Fraction(1, 2))),
    ("birthday", "edge cases", lambda: _holds(
        ct.birthday_probability(1) == 0 and ct.birthday_probability(400) == 1)),
]
