"""The "series" suite: the ring of truncated series, and the integer
kernel of `series` against the schoolbook route in `Fraction`s."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from ..series import FormalSeries, _mul_schoolbook, exp_series, geometric_series
from . import Range, Thunk, _holds


def series_ring_failure(seed: int, trials: int) -> Optional[int]:
    """First of `trials` triples of random integer series of order 5 whose
    product is not commutative, associative or distributive over the sum."""
    rng = random.Random(seed)
    for trial in range(trials):
        x, y, z = (FormalSeries([rng.randint(-4, 4) for _ in range(6)]) for _ in range(3))
        if x * y != y * x or (x * y) * z != x * (y * z) or x * (y + z) != x * y + x * z:
            return trial
    return None


def schoolbook_power(a: FormalSeries, n: int) -> FormalSeries:
    """Reference route for a**n: n schoolbook products."""
    out = FormalSeries.one(a.order)
    for _ in range(n):
        out = _mul_schoolbook(out, a)
    return out


def schoolbook_compose(f: FormalSeries, g: FormalSeries) -> FormalSeries:
    """Reference route for f.compose(g): Horner's rule on schoolbook products."""
    n = min(f.order, g.order)
    g = g.truncate(n)
    acc = FormalSeries.zero(n)
    for c in reversed(f.coeffs[: n + 1]):
        acc = _mul_schoolbook(acc, g) + FormalSeries.one(n).scale(c)
    return acc


def random_rational_series(rng: random.Random, order: int) -> FormalSeries:
    """Coefficients p/q, |p| <= 6, 1 <= q <= 6, about a third of them zero."""
    return FormalSeries([Fraction(rng.randint(-6, 6), rng.randint(1, 6))
                         if rng.random() < 0.7 else 0 for _ in range(order + 1)])


def series_route_failure(seed: int, trials: int, order: int,
                         max_power: int) -> Optional[int]:
    """First of `trials` where a product, a power (at most `max_power`) or a
    composition of random rational series of orders up to `order` differs
    from the schoolbook route."""
    rng = random.Random(seed)
    for trial in range(trials):
        a = random_rational_series(rng, rng.randint(0, order))
        b = random_rational_series(rng, rng.randint(0, order))
        g = random_rational_series(rng, rng.randint(1, order))
        g = FormalSeries((0,) + g.coeffs[1:])
        n = rng.randint(0, max_power)
        if (a * b != _mul_schoolbook(a, b) or a**n != schoolbook_power(a, n)
                or a.compose(g) != schoolbook_compose(a, g)):
            return trial
    return None


CHECKS: list[tuple[str, Thunk]] = [
    ("unit element", lambda: _holds(
        FormalSeries.one(4) * (a := FormalSeries([1, 2, 1, 0, 0])) == a
        == a * FormalSeries.one(4))),
    ("(1+t)^3 row", lambda: _holds(
        (FormalSeries([1, 1, 0, 0]) ** 3).to_json() == ["1", "3", "3", "1"])),
    ("(1-t) * geometric = 1", lambda: _holds(
        FormalSeries([1, -1, 0, 0, 0, 0]) * geometric_series(5) == FormalSeries.one(5))),
    ("exp composed with 2t", lambda: _holds(
        list(map(exp_series(4).compose(FormalSeries([0, 2, 0, 0, 0])).coeff_at, range(5)))
        == [1, 2, 2, Fraction(4, 3), Fraction(2, 3)])),
    ("commutative/associative/distributive", Range(series_ring_failure, (7, 40), (13, 200))),
    ("integer kernel matches the Fraction schoolbook route",
     Range(series_route_failure, (8, 20, 7, 12))),
]
