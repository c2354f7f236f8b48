"""Row-recursive biinfinite matrices.

A matrix is determined by its recursion rule: row 0's generating series
is the constant 1, and row n's series is the rule raised to the n-th
power.  Columns are truncated at a caller-chosen order; rows are
materialized lazily in a `RowTable` with its own lock and cached forever,
cheap at the sizes targeted here.

A row is held as integers: (numerators, d), the row's series being
numerators[k] / d.  The rule's own integer form (`FormalSeries.nums` over
`FormalSeries.den`) is taken up to its last nonzero term: row n is the
previous row convolved with it (`series.convolve`, one pass over the row
per run of three or more equal terms of the rule and per other nonzero
term), over the previous denominator times the rule's, so a rational rule
runs the same route.  `entry` returns a numerator as it is when d is 1, as
for every integer rule, and otherwise divides by
`exact_core.exact_quotient`, which raises on a non-integral entry; `row_series` wraps a row's form in a
`FormalSeries` (`FormalSeries.from_form`) only on request.  The reference
route is `rule**n` by repeated `Fraction` schoolbook products
(`series._mul_schoolbook`), which the tests and `exactcomb verify`
compare the rows against.  `table` gives the first
rows and columns as ints; `exactcomb table` writes them as CSV or JSON.
"""

from __future__ import annotations

from .exact_core import RowTable, exact_quotient
from .series import FormalSeries, convolve, geometric_series


class RecursiveMatrix:
    def __init__(self, rule: FormalSeries, order: int):
        if order < 0:
            raise ValueError("order must be >= 0")
        self.rule = rule.truncate(order)
        self.order = order
        nums, den = self.rule.nums, self.rule.den
        # up to the last nonzero term, so each row's product skips the rest
        nums = nums[: max((k + 1 for k, x in enumerate(nums) if x), default=0)]
        # row(m) = rule * row(m-1); the locals keep self out of a ref cycle
        self._table = RowTable(
            ([1] + [0] * order, 1),
            lambda prev, m: (convolve(nums, prev[0]), prev[1] * den),
        )

    def _row(self, n: int) -> tuple[list[int], int]:
        """Row n as (numerators, denominator), memoized via the one-step
        recursion row(n) = rule * row(n-1)."""
        if n < 0:
            raise ValueError("row index must be >= 0")
        return self._table[n]

    def row_series(self, n: int) -> FormalSeries:
        """Generating series of row n: rule**n."""
        return FormalSeries.from_form(*self._row(n))

    def entry(self, n: int, k: int) -> int:
        """M(n, k): coefficient of t^k in row n, guaranteed integral."""
        if not 0 <= k <= self.order:
            raise IndexError(f"column {k} out of range (order {self.order})")
        nums, den = self._row(n)
        if den == 1:
            return nums[k]
        return exact_quotient(f"entry ({n},{k})", nums[k], den)

    def vandermonde_convolve(self, i: int, j: int, k: int) -> int:
        """sum_h M(i,h) M(j,k-h); equals entry(i+j, k) for any split."""
        if not 0 <= k <= self.order:
            raise IndexError(f"column {k} out of range (order {self.order})")
        return sum(self.entry(i, h) * self.entry(j, k - h) for h in range(k + 1))

    def table(self, rows: int, cols: int) -> list[list[int]]:
        if cols - 1 > self.order:
            raise IndexError(f"requested {cols} columns, order is {self.order}")
        out = []
        for n in range(rows):
            nums, den = self._row(n)
            out.append(nums[:cols] if den == 1 else [self.entry(n, k) for k in range(cols)])
        return out


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
