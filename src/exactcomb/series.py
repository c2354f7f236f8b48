"""Truncated formal power series with exact rational coefficients.

A `FormalSeries` keeps coefficients 0..order in one integer form: a tuple
`nums` of integer numerators over one positive denominator `den`, in
lowest terms (gcd(den, *nums) == 1, so den is 1 for an integer series and
equal series have equal forms).  Binary operations truncate the result to
the smaller operand order, so every coefficient that is kept is exact.
These series carry the rules and rows of recursive matrices (integer
coefficients only: `recursive_matrix` refuses a rational rule, whose
powers are this class's `**`) and the composition checks (rational
coefficients), so there is a single series type.

Every operation works on the form and builds no `Fraction`: a sum brings
both numerator tuples to a common denominator, a product convolves them
over the product of the denominators, and each result is reduced by one
`math.gcd`.  `convolve` costs one pass over its second list per run of
three or more equal terms of its first (window sums read off one prefix
sum) and per other nonzero term, so a product takes as its first list the
operand with fewer runs of equal nonzero terms.  `**` squares
repeatedly, and `compose` is Horner's rule on the outer series' integer
numerators, whose constants are added to the numerators without a new
reduction, with one division by the outer denominator at the end.
`coeffs`, the coefficients as reduced `Fraction`s, is a
`functools.cached_property`: built from the form on first read and then
kept (so the class has no `__slots__`); a series built from `Fraction`s
keeps them as its `coeffs`.  The `Fraction` schoolbook product is kept
as `_mul_schoolbook`, the reference route that the tests and
`exactcomb verify` compare the product, powers (as n-fold schoolbook
products) and composition against; it reads `coeffs`.

`fractions` is imported only where a Fraction is read or made, so a
series built from ints and every operation on the form load none of it
(`table binomial` prints its rows without it).  A single Fraction is made
by `exact_core.fraction`; a loop over coefficients imports the class once
instead, since a call of `fraction` per coefficient measured slower.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import accumulate, groupby
from operator import add, sub
from typing import TYPE_CHECKING, Iterable, Sequence, Union

from .exact_core import fraction, integer_form

if TYPE_CHECKING:
    from fractions import Fraction

Scalar = Union[int, "Fraction"]


# The shortest run of equal terms that `convolve` adds as window sums.  On a
# 120-term row of binomial coefficients, the rule 1 + t (a run of two 1s) took
# 8.2 us as two shifted passes and 12.9 us as windows, with the prefix sums
# to build (CPython 3.11, x86-64).
WINDOW_RUN = 3


def convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Coefficients 0..len(b)-1 of the product of two integer coefficient
    lists, as a new list.  The terms of `a` at or past len(b), and its zero
    tail, are skipped.  A run of x over a[i:j] that is WINDOW_RUN or more
    terms long adds x times the window sums b[k-j+1] + ... + b[k-i] to each
    out[k], read off one prefix sum of `b`; every other nonzero term
    x = a[i] adds x times the shifted copy b[:len(b)-i]."""
    size = len(b)
    end = min(len(a), size)
    while end and not a[end - 1]:
        end -= 1
    out = sums = None
    i = 0
    while i < end:
        x = a[i]
        j = i + 1
        while j < end and a[j] == x:
            j += 1
        if not x:
            i = j
            continue
        if j - i < WINDOW_RUN:
            j = i + 1
            tail = b[:size - i]
        else:
            if sums is None:
                sums = list(accumulate(b, initial=0))
            # the window at out[i + t] is sums[t + 1] - sums[max(0, t - width + 1)]
            width = j - i
            tail = sums[1:width]
            tail += map(sub, sums[width:size - i + 1], sums[:size - j + 1])
        if x != 1:
            tail = [x * y for y in tail]
        if out is None:
            # the first term is written, not added to zeros
            out = [0] * i
            out += tail
        else:
            # tail is as long as out[i:], so the slice assignment keeps len(out)
            out[i:] = map(add, out[i:], tail)
        i = j
    return [0] * size if out is None else out


def _runs(nums: Sequence[int]) -> int:
    """The number of runs of equal nonzero terms in nums."""
    return sum(1 for x, _ in groupby(nums) if x)


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

    def __init__(self, coeffs: Iterable[Scalar]):
        """Ints and Fractions as they are, anything else through Fraction."""
        values = tuple(coeffs)
        if not all(isinstance(c, int) for c in values):
            from fractions import Fraction

            values = tuple(c if isinstance(c, (int, Fraction)) else Fraction(c) for c in values)
            if all(type(c) is Fraction for c in values):
                # already the reduced Fractions that `coeffs` would build, as
                # the schoolbook routes make them and read them back
                self.coeffs = values
        if not values:
            raise ValueError("a series needs at least its constant coefficient")
        # over the lcm of reduced denominators the form is in lowest terms: a
        # prime's full power in the lcm divides some denominator q, and then
        # divides neither that term's numerator nor lcm / q
        nums, self.den = integer_form(values)
        self.nums = tuple(nums)

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as reduced `Fraction`s, built from the form."""
        from fractions import Fraction

        den = self.den
        if den == 1:
            return tuple(map(Fraction, self.nums))
        return tuple(Fraction(x, den) for x in self.nums)

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
        # convolve makes a pass over b per run of equal nonzero terms of a
        # (per term, in a run shorter than WINDOW_RUN)
        if a is not b and _runs(b) < _runs(a):
            a, b = b, a
        return FormalSeries.from_form(convolve(a, b), self.den * other.den)

    def scale(self, c: Scalar) -> "FormalSeries":
        c = FormalSeries([c])  # c's numerator over its denominator
        p = c.nums[0]
        return FormalSeries.from_form([p * x for x in self.nums], c.den * self.den)

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
    out = [fraction(0)] * (n + 1)
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
