"""The "faa" suite: series composition against Faa di Bruno's sum over
partition types."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from .. import counting as ct
from ..exact_core import factorial
from ..series import FormalSeries
from . import Range, Thunk


def faa_failure(seed: int, trials: int, order: int, bound: int) -> Optional[tuple]:
    """First (trial, n) where f(g(t)) disagrees with the sum over partition
    types; f and g are random series of `order`, coefficients in [-bound, bound]."""
    rng = random.Random(seed)
    for trial in range(trials):
        f = FormalSeries([rng.randint(-bound, bound) for _ in range(order + 1)])
        g = FormalSeries([0] + [rng.randint(-bound, bound) for _ in range(order)])
        comp = f.compose(g)
        for n in range(1, order + 1):
            rhs = Fraction(0)
            for tv in ct.iter_type_vectors(n):
                term = Fraction(ct.faa_di_bruno(tv))
                term *= factorial(tv.block_count) * f.coeff_at(tv.block_count)
                for i, v in enumerate(tv.nu, start=1):
                    term *= (factorial(i) * g.coeff_at(i)) ** v
                rhs += term
            if factorial(n) * comp.coeff_at(n) != rhs:
                return trial, n
    return None


CHECKS: list[tuple[str, Thunk]] = [
    ("composite-derivative coefficients via partition types",
     Range(faa_failure, (99, 8, 6, 3), (2024, 20, 8, 4))),
]
