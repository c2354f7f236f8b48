"""Row-recursive biinfinite matrices with integer entries.

Every matrix here is a power table of the rule g = 1 + t + ... + t^p:
row 0's generating series is the constant 1, and row n's series is g^n.
Columns are truncated at a caller-chosen order, so the rule is taken as
1 + t + ... + t^q with q = min(p, order), and every row is a list of
order + 1 ints.  p = 1 gives the binomial coefficients, any p >= order the
multiset coefficients (the rule 1/(1 - t), truncated), and a smaller p the
occupancy counts with at most p per box.  Rows are materialized lazily in
a `RowTable` with its own lock and cached forever, cheap at the sizes
targeted here.

Row n is the previous row convolved with the rule (`series.convolve`, one
pass over the row per run of three or more equal terms, so one for q >= 2).
Each extension of the table certifies its new top row by Miller's power
recurrence (`series.check_power_row`, which gentile's table in `counting`
runs too); that function's docstring argues why the top row certifies
every row below it.  `entry` reads a row and `table` slices the first
rows, after requesting the last, so that one call extends the table once
and runs one check; `exactcomb table` writes them as CSV or JSON.
`row_series` wraps a row in a `FormalSeries` only on request, and `rule`
is g as a `FormalSeries` of the matrix's order.  The reference route is
`rule**n` by repeated `Fraction` schoolbook products
(`series._mul_schoolbook`), which the tests and `exactcomb verify` compare
the rows against.
"""

from __future__ import annotations

from .exact_core import RowTable
from .series import FormalSeries, check_power_row, convolve, geometric_series


class RecursiveMatrix:
    def __init__(self, p: int, order: int):
        if order < 0:
            raise ValueError("order must be >= 0")
        if p < 1:
            raise ValueError("occupancy bound p must be >= 1")
        q = min(p, order)
        self.order = order
        self.rule = geometric_series(q).truncate(order)
        rule, size = (1,) * (q + 1), order + 1
        # row(m) = rule * row(m-1); the locals keep self out of a ref cycle
        self._table = RowTable(
            [1] + [0] * order, lambda prev, m: convolve(rule, prev),
            check=lambda row, n: check_power_row(("matrix row", q, n), q, row, n, size))

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
        if rows > 0:
            self._row(rows - 1)  # one extension, so one check of its top row
        return [self._row(n)[:cols] for n in range(rows)]


def binomial_matrix(order: int) -> RecursiveMatrix:
    """Rule 1 + t: the Pascal triangle of binomial coefficients."""
    return RecursiveMatrix(1, order)


def multiset_matrix(order: int) -> RecursiveMatrix:
    """Rule 1 + t + t^2 + ...: multiset coefficients <n, k>."""
    return RecursiveMatrix(order + 1, order)


def gentile_matrix(p: int, order: int) -> RecursiveMatrix:
    """Rule 1 + t + ... + t^p: occupancy counts with at most p per box."""
    return RecursiveMatrix(p, order)
