"""Row-recursive biinfinite matrices with integer entries.

A matrix is determined by its recursion rule: row 0's generating series
is the constant 1, and row n's series is the rule raised to the n-th
power.  Columns are truncated at a caller-chosen order, and the rule
must be an integer series up to that order (the constructor raises
`ValueError` otherwise), so every row is a list of ints.  Rows are
materialized lazily in a `RowTable` with its own lock and cached forever,
cheap at the sizes targeted here.

The rule's numerators are taken up to its last nonzero term: row n is the
previous row convolved with them (`series.convolve`, one pass over the row
per run of three or more equal terms of the rule and per other nonzero
term).  `entry` reads a row and `table` slices the first rows;
`exactcomb table` writes them as CSV or JSON.  `row_series` wraps a row
in a `FormalSeries` only on request.  The reference route is `rule**n` by
repeated `Fraction` schoolbook products (`series._mul_schoolbook`), which
the tests and `exactcomb verify` compare the rows against.  A rational
rule's powers are `rule**n` of `FormalSeries` itself.
"""

from __future__ import annotations

from .exact_core import RowTable
from .series import FormalSeries, convolve, geometric_series


class RecursiveMatrix:
    def __init__(self, rule: FormalSeries, order: int):
        if order < 0:
            raise ValueError("order must be >= 0")
        self.rule = rule.truncate(order)
        if self.rule.den != 1:
            raise ValueError("a recursive matrix needs an integer rule up to its order")
        self.order = order
        # up to the last nonzero term, so each row's product skips the rest
        nums = self.rule.nums
        nums = nums[: max((k + 1 for k, x in enumerate(nums) if x), default=0)]
        # row(m) = rule * row(m-1); the locals keep self out of a ref cycle
        self._table = RowTable([1] + [0] * order, lambda prev, m: convolve(nums, prev))

    def _row(self, n: int) -> list[int]:
        """Row n, memoized via the one-step recursion row(n) = rule * row(n-1)."""
        if n < 0:
            raise ValueError("row index must be >= 0")
        return self._table[n]

    def row_series(self, n: int) -> FormalSeries:
        """Generating series of row n: rule**n."""
        return FormalSeries.from_form(self._row(n), 1)

    def entry(self, n: int, k: int) -> int:
        """M(n, k): coefficient of t^k in row n."""
        if not 0 <= k <= self.order:
            raise IndexError(f"column {k} out of range (order {self.order})")
        return self._row(n)[k]

    def vandermonde_convolve(self, i: int, j: int, k: int) -> int:
        """sum_h M(i,h) M(j,k-h); equals entry(i+j, k) for any split."""
        if not 0 <= k <= self.order:
            raise IndexError(f"column {k} out of range (order {self.order})")
        return sum(self.entry(i, h) * self.entry(j, k - h) for h in range(k + 1))

    def table(self, rows: int, cols: int) -> list[list[int]]:
        if cols - 1 > self.order:
            raise IndexError(f"requested {cols} columns, order is {self.order}")
        return [self._row(n)[:cols] for n in range(rows)]


def binomial_matrix(order: int) -> RecursiveMatrix:
    """Rule 1 + t: the Pascal triangle of binomial coefficients."""
    return RecursiveMatrix(FormalSeries([1, 1]), order)


def multiset_matrix(order: int) -> RecursiveMatrix:
    """Rule 1 + t + t^2 + ...: multiset coefficients <n, k>."""
    return RecursiveMatrix(geometric_series(order), order)


def gentile_matrix(p: int, order: int) -> RecursiveMatrix:
    """Rule 1 + t + ... + t^p: occupancy counts with at most p per box."""
    if p < 1:
        raise ValueError("occupancy bound p must be >= 1")
    coeffs = [1 if i <= p else 0 for i in range(order + 1)]
    return RecursiveMatrix(FormalSeries(coeffs), order)
