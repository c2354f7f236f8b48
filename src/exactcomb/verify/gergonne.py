"""The "gergonne" suite: draw counts against enumerated draws."""

from __future__ import annotations

from typing import Optional

from .. import counting as ct
from .. import enumeration as en
from . import Range, Thunk


def _draws_failure(queries) -> Optional[ct.GergonneQuery]:
    return next(
        (q for q in queries
         if ct.gergonne(q)[0] != len(list(en.enumerate_gergonne(q)))),
        None,
    )


def linear_draws_failure(size: int) -> Optional[ct.GergonneQuery]:
    """First draw (n < size, m < 4) whose count differs from enumeration."""
    return _draws_failure(
        ct.GergonneQuery(n, k, m)
        for n in range(1, size) for k in range(n + 1) for m in range(4)
    )


def circular_draws_failure(size: int) -> Optional[ct.GergonneQuery]:
    """First circular draw (even n < size) miscounted against enumeration."""
    return _draws_failure(
        ct.GergonneQuery(n, k, 1, circular=True)
        for n in range(2, size, 2) for k in range(n + 1)
    )


CHECKS: list[tuple[str, Thunk]] = [
    ("linear draws match enumeration", Range(linear_draws_failure, (11,), (13,))),
    ("circular draws match enumeration", Range(circular_draws_failure, (11,), (13,))),
]
