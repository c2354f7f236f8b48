"""Truncated formal power series with exact rational coefficients.

A `FormalSeries` keeps coefficients 0..order as `Fraction`s.  Binary
operations truncate the result to the smaller operand order, so every
coefficient that is kept is exact.  These series carry the rows of
recursive matrices (integer coefficients) and the composition checks
(rational coefficients), so there is a single series type.

The product runs on integers: each operand is written as integer
numerators over one common denominator (`exact_core.integer_form`), the
numerator lists are convolved (`convolve`, which skips zero terms), and
one `Fraction` is built per output coefficient.  `**` squares repeatedly and
`compose` is Horner's rule, both on that product.  The `Fraction`
schoolbook product is kept as `_mul_schoolbook`, the reference route that
the tests and `exactcomb verify` compare the product, powers (as n-fold
schoolbook products) and composition against.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Sequence, Union

from .exact_core import integer_form

Scalar = Union[int, Fraction]


def convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Coefficients 0..len(b)-1 of the product of two integer coefficient
    lists, len(a) <= len(b); the loop runs over the nonzero terms of `a`."""
    size = len(b)
    out = [0] * size
    for i, x in enumerate(a):
        if x:
            # as long as out[i:], so the slice assignment keeps len(out)
            tail = b[: size - i]
            if x != 1:
                tail = [x * y for y in tail]
            out[i:] = map(add, out[i:], tail)
    return out


class FormalSeries:
    """A power series truncated at a fixed order (inclusive degree)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar]):
        # a Fraction is immutable and already reduced, so it is kept as is
        cs = tuple(c if type(c) is Fraction else Fraction(c) for c in coeffs)
        if not cs:
            raise ValueError("a series needs at least its constant coefficient")
        self.coeffs: tuple[Fraction, ...] = cs

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(order: int) -> "FormalSeries":
        return FormalSeries([0] * (order + 1))

    @staticmethod
    def one(order: int) -> "FormalSeries":
        return FormalSeries([1] + [0] * order)

    @staticmethod
    def identity(order: int) -> "FormalSeries":
        """The series t, truncated at `order` (order >= 1)."""
        if order < 1:
            raise ValueError("identity series needs order >= 1")
        return FormalSeries([0, 1] + [0] * (order - 1))

    @classmethod
    def from_json(cls, items: Sequence[str]) -> "FormalSeries":
        from .exact_core import parse_rational

        return cls([parse_rational(s) for s in items])

    # -- basic queries -----------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff_at(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} out of range (order {self.order})")
        return self.coeffs[k]

    def constant_term(self) -> Fraction:
        return self.coeffs[0]

    def truncate(self, order: int) -> "FormalSeries":
        """Copy truncated (or zero-padded) to the given order."""
        if order < 0:
            raise ValueError("order must be >= 0")
        if order <= self.order:
            return FormalSeries(self.coeffs[: order + 1])
        return FormalSeries(self.coeffs + (Fraction(0),) * (order - self.order))

    # -- algebra -----------------------------------------------------

    def __add__(self, other: "FormalSeries") -> "FormalSeries":
        n = min(self.order, other.order)
        return FormalSeries(
            [self.coeffs[i] + other.coeffs[i] for i in range(n + 1)]
        )

    def __sub__(self, other: "FormalSeries") -> "FormalSeries":
        n = min(self.order, other.order)
        return FormalSeries(
            [self.coeffs[i] - other.coeffs[i] for i in range(n + 1)]
        )

    def __mul__(self, other: "FormalSeries") -> "FormalSeries":
        n = min(self.order, other.order)
        a, da = integer_form(self.coeffs[: n + 1])
        b, db = integer_form(other.coeffs[: n + 1])
        den = da * db
        return FormalSeries([Fraction(c, den) for c in convolve(a, b)])

    def scale(self, c: Scalar) -> "FormalSeries":
        c = Fraction(c)
        return FormalSeries([c * a for a in self.coeffs])

    def __pow__(self, n: int) -> "FormalSeries":
        if n < 0:
            raise ValueError("series power needs n >= 0")
        out, square = FormalSeries.one(self.order), self
        while n:
            if n & 1:
                out = out * square
            n >>= 1
            if n:
                square = square * square
        return out

    def compose(self, inner: "FormalSeries") -> "FormalSeries":
        """self(inner(t)); requires inner(0) = 0 so truncation is exact."""
        if inner.constant_term() != 0:
            raise ValueError("composition needs a zero constant term in the inner series")
        n = min(self.order, inner.order)
        g = inner.truncate(n)
        acc = FormalSeries.zero(n)
        for c in reversed(self.coeffs[: n + 1]):
            acc = acc * g
            acc = FormalSeries((acc.coeffs[0] + c,) + acc.coeffs[1:])
        return acc

    # -- equality / display -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FormalSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"FormalSeries({list(self.coeffs)!r})"

    def text(self) -> str:
        """Human form "c0 + c1*t + c2*t^2 ... (order N)"."""
        from .exact_core import format_rational

        parts = [format_rational(self.coeffs[0])]
        for k, c in enumerate(self.coeffs[1:], start=1):
            t = "t" if k == 1 else f"t^{k}"
            parts.append(f"{format_rational(c)}*{t}")
        return " + ".join(parts) + f" (order {self.order})"

    def to_json(self) -> list[str]:
        """Exact coefficients as an array of "p/q" strings."""
        from .exact_core import format_rational

        return [format_rational(c) for c in self.coeffs]


def _mul_schoolbook(a: FormalSeries, b: FormalSeries) -> FormalSeries:
    """Reference route for `a * b`: the product term by term in `Fraction`s."""
    n = min(a.order, b.order)
    out = [Fraction(0)] * (n + 1)
    for i, x in enumerate(a.coeffs[: n + 1]):
        if not x:
            continue
        for j in range(n + 1 - i):
            y = b.coeffs[j]
            if y:
                out[i + j] += x * y
    return FormalSeries(out)


def geometric_series(order: int) -> FormalSeries:
    """1 + t + t^2 + ... + t^order, the truncated inverse of 1 - t."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return FormalSeries([1] * (order + 1))


def exp_series(order: int) -> FormalSeries:
    """Coefficients 1/k! up to order (handy for composition checks)."""
    from .exact_core import factorial

    return FormalSeries([Fraction(1, factorial(k)) for k in range(order + 1)])
