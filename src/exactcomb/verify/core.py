"""The "core" suite: `factorial` and `gcd` of `exact_core`."""

from __future__ import annotations

import random
from typing import Optional

from ..exact_core import factorial, gcd
from . import Range, Thunk, _holds


def gcd_failure(seed: int, trials: int) -> Optional[int]:
    """First of `trials` random pairs in [-500, 500], not both 0, whose gcd
    is not symmetric, positive and a divisor of both."""
    rng = random.Random(seed)
    for trial in range(trials):
        a, b = rng.randint(-500, 500), rng.randint(-500, 500)
        if a == b == 0:
            continue
        g = gcd(a, b)
        if g != gcd(b, a) or g <= 0 or a % g or b % g:
            return trial
    return None


CHECKS: list[tuple[str, Thunk]] = [
    ("factorial golden", lambda: _holds(
        factorial(0) == 1 and factorial(4) == 24 and factorial(12) == 479001600)),
    ("factorial recursion to 200", lambda: _holds(
        all(factorial(n) == n * factorial(n - 1) for n in range(1, 201)))),
    ("gcd golden", lambda: _holds(
        gcd(3, 20) == 1 and gcd(7, 0) == 7 and gcd(30, 210) == 30)),
    ("gcd commutative and divides", Range(gcd_failure, (11, 200), (12, 5000))),
]
