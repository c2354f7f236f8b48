"""Truncated formal power series with exact rational coefficients.

A `FormalSeries` keeps coefficients 0..order in one integer form: a tuple
`nums` of integer numerators over one positive denominator `den`, in
lowest terms (gcd(den, *nums) == 1, so den is 1 for an integer series and
equal series have equal forms).  Binary operations truncate the result to
the smaller operand order, so every coefficient that is kept is exact.
These series carry the rows of recursive matrices (integer coefficients)
and the composition checks (rational coefficients), so there is a single
series type.

Every operation works on the form and builds no `Fraction`: a sum brings
both numerator tuples to a common denominator, a product convolves them
(`convolve`, which skips zero terms) over the product of the
denominators, and each result is reduced by one `math.gcd`.  `**` squares
repeatedly, and `compose` is Horner's rule on the outer series' integer
numerators, whose constants are added to the numerators without a new
reduction, with one division by the outer denominator at the end.
`coeffs`, the coefficients as reduced `Fraction`s, is built from the form
on first access and then kept; a series built from `Fraction`s keeps them
as its `coeffs`.  The `Fraction` schoolbook product is kept
as `_mul_schoolbook`, the reference route that the tests and
`exactcomb verify` compare the product, powers (as n-fold schoolbook
products) and composition against; it reads `coeffs`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add, sub
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


def _exact(c: Scalar) -> Scalar:
    """An int or Fraction as is, anything else through Fraction."""
    return c if isinstance(c, (int, Fraction)) else Fraction(c)


def _reduced(nums: Sequence[int], den: int) -> tuple[Sequence[int], int]:
    """nums over den (den > 0) in lowest terms: divided by their common
    factor, as a new list, when it is not 1."""
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            return [x // g for x in nums], den // g
    return nums, den


class FormalSeries:
    """A power series truncated at a fixed order (inclusive degree), held as
    numerators `nums` over the denominator `den`, in lowest terms."""

    # `coeffs` stays unset until it is first read, when __getattr__ fills it
    __slots__ = ("nums", "den", "coeffs")

    def __init__(self, coeffs: Iterable[Scalar]):
        values = tuple(_exact(c) for c in coeffs)
        if not values:
            raise ValueError("a series needs at least its constant coefficient")
        # over the lcm of reduced denominators the form is in lowest terms: a
        # prime's full power in the lcm divides some denominator q, and then
        # divides neither that term's numerator nor lcm / q
        nums, self.den = integer_form(values)
        self.nums = tuple(nums)
        if all(type(v) is Fraction for v in values):
            # already the reduced Fractions that `coeffs` would build, as
            # the schoolbook routes make them and read them back
            self.coeffs = values

    def __getattr__(self, name: str):
        if name != "coeffs":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        den = self.den
        if den == 1:
            coeffs = tuple(map(Fraction, self.nums))
        else:
            coeffs = tuple(Fraction(x, den) for x in self.nums)
        self.coeffs = coeffs
        return coeffs

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_form(nums: Sequence[int], den: int) -> "FormalSeries":
        """The series with coefficients nums[k] / den (den > 0)."""
        return _of(*_reduced(nums, den))

    @staticmethod
    def zero(order: int) -> "FormalSeries":
        if order < 0:
            raise ValueError("a series needs at least its constant coefficient")
        return _of((0,) * (order + 1), 1)

    @staticmethod
    def one(order: int) -> "FormalSeries":
        return _of((1,) + (0,) * order, 1)

    # -- basic queries -----------------------------------------------

    @property
    def order(self) -> int:
        return len(self.nums) - 1

    def coeff_at(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} out of range (order {self.order})")
        return self.coeffs[k]

    def truncate(self, order: int) -> "FormalSeries":
        """Copy truncated (or zero-padded) to the given order."""
        if order < 0:
            raise ValueError("order must be >= 0")
        if order <= self.order:
            # the dropped terms may have held the denominator's factors
            return FormalSeries.from_form(self.nums[: order + 1], self.den)
        return _of(self.nums + (0,) * (order - self.order), self.den)

    # -- algebra -----------------------------------------------------

    def _combine(self, other: "FormalSeries", op) -> "FormalSeries":
        """op (add or sub) termwise over a common denominator, zip truncating
        to the smaller order."""
        da, db = self.den, other.den
        if da == db:
            return FormalSeries.from_form(list(map(op, self.nums, other.nums)), da)
        g = math.gcd(da, db)
        ma, mb = db // g, da // g
        return FormalSeries.from_form(
            [op(x * ma, y * mb) for x, y in zip(self.nums, other.nums)], da * ma)

    def __add__(self, other: "FormalSeries") -> "FormalSeries":
        return self._combine(other, add)

    def __sub__(self, other: "FormalSeries") -> "FormalSeries":
        return self._combine(other, sub)

    def __mul__(self, other: "FormalSeries") -> "FormalSeries":
        n = min(len(self.nums), len(other.nums))
        a, b = self.nums[:n], other.nums[:n]
        # convolve multiplies by each term of its first argument but 0 and 1
        if b.count(0) + b.count(1) > a.count(0) + a.count(1):
            a, b = b, a
        return FormalSeries.from_form(convolve(a, b), self.den * other.den)

    def scale(self, c: Scalar) -> "FormalSeries":
        c = _exact(c)
        p = c.numerator
        return FormalSeries.from_form([p * x for x in self.nums], c.denominator * self.den)

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
        if inner.nums[0]:
            raise ValueError("composition needs a zero constant term in the inner series")
        n = min(self.order, inner.order)
        g = inner.nums[: n + 1]
        # Horner's rule on the numerators of self, then one division by its
        # denominator; adding an integer to a reduced form keeps it reduced
        acc, den = [0] * (n + 1), 1
        for c in reversed(self.nums[: n + 1]):
            acc, den = _reduced(convolve(g, acc), den * inner.den)
            acc[0] += c * den
        return FormalSeries.from_form(acc, den * self.den)

    # -- equality / display -------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FormalSeries):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        return hash((self.den, self.nums))

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


def _of(nums: Sequence[int], den: int) -> FormalSeries:
    """The series nums[k] / den from a form already in lowest terms."""
    s = object.__new__(FormalSeries)
    s.nums = tuple(nums)
    s.den = den
    return s


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
    return _of((1,) * (order + 1), 1)


def exp_series(order: int) -> FormalSeries:
    """Coefficients 1/k! up to order (handy for composition checks): order!/k!
    over order!, the products order (order-1) ... (k+1)."""
    if order < 0:
        raise ValueError("a series needs at least its constant coefficient")
    nums = [1] * (order + 1)
    for k in range(order, 0, -1):
        nums[k - 1] = nums[k] * k
    return _of(nums, nums[0])
