"""The "matrix" suite: recursive matrices against the rows printed in the
paper, their closed forms, Vandermonde convolution and rule powers."""

from __future__ import annotations

from typing import Iterable, Optional

from .. import counting as ct
from ..recursive_matrix import (
    RecursiveMatrix,
    binomial_matrix,
    gentile_matrix,
    multiset_matrix,
)
from ..series import FormalSeries, _mul_schoolbook
from . import Range, Thunk


# family: (matrix of a given order, closed form of its entries)
MATRICES = {
    "binomial": (binomial_matrix, ct.binomial),
    "multiset": (multiset_matrix, ct.multiset_coeff),
    "gentile p=2": (lambda order: gentile_matrix(2, order),
                    lambda n, k: ct.gentile_coeff(2, n, k)),
}


# the first rows of each matrix as printed in the paper's tables
PRINTED_ROWS = {
    "binomial": [[1, 0, 0, 0, 0], [1, 1, 0, 0, 0], [1, 2, 1, 0, 0], [1, 3, 3, 1, 0]],
    "multiset": [[1, 0, 0, 0, 0], [1, 1, 1, 1, 1], [1, 2, 3, 4, 5], [1, 3, 6, 10, 15]],
    "gentile p=2": [[1, 0, 0, 0, 0, 0, 0], [1, 1, 1, 0, 0, 0, 0],
                    [1, 2, 3, 2, 1, 0, 0], [1, 3, 6, 7, 6, 3, 1]],
}


def printed_rows_failure(family: str, order: int, rows: Iterable[int]) -> Optional[int]:
    """First of `rows` where the matrix of this order differs from PRINTED_ROWS."""
    printed = PRINTED_ROWS[family]
    table = MATRICES[family][0](order).table(len(printed), len(printed[0]))
    return next((n for n in rows if table[n] != printed[n]), None)


def closed_form_failure(rows: int, order: int) -> Optional[tuple]:
    """First (family, n, k), n < rows, k <= order: entry != closed form."""
    for family, (build, closed) in MATRICES.items():
        mat = build(order)
        for n in range(rows):
            for k in range(order + 1):
                if mat.entry(n, k) != closed(n, k):
                    return family, n, k
    return None


def convolution_failure(families: Iterable[str], rows: int,
                        order: int) -> Optional[tuple]:
    """First (family, i, j, k), i + j < rows: convolution != entry(i + j, k)."""
    for family in families:
        mat = MATRICES[family][0](order)
        for n in range(rows):
            for i in range(n + 1):
                for k in range(order + 1):
                    if mat.vandermonde_convolve(i, n - i, k) != mat.entry(n, k):
                        return family, i, n - i, k
    return None


# runs of three 2s and three -1s, which `series.convolve` adds as window sums
RUNS_RULE = FormalSeries([2, 2, 2, -1, -1, -1])


def matrix_route_failure(rows: int, order: int) -> Optional[tuple]:
    """First (family, n), n < rows, where row n of a matrix of this order,
    as its series or as its entries, differs from rule**n by repeated
    schoolbook products.  The families are MATRICES and RUNS_RULE."""
    builds = {family: build for family, (build, _) in MATRICES.items()}
    builds["runs 2+2t+2t^2-t^3-t^4-t^5"] = lambda order: RecursiveMatrix(RUNS_RULE, order)
    for family, build in builds.items():
        mat = build(order)
        power = FormalSeries.one(order)
        for n in range(rows):
            entries = [mat.entry(n, k) for k in range(order + 1)]
            if mat.row_series(n) != power or entries != list(power.coeffs):
                return family, n
            power = _mul_schoolbook(power, mat.rule)
    return None


CHECKS: list[tuple[str, Thunk]] = [
    ("Pascal rows 0..3",
     Range(printed_rows_failure, ("binomial", 6, range(4)), ("binomial", 4, range(4)))),
    ("multiset rows 0..3",
     Range(printed_rows_failure, ("multiset", 6, range(4)), ("multiset", 4, range(4)))),
    ("occupancy-bound p=2 row 3",
     Range(printed_rows_failure, ("gentile p=2", 6, (3,)), ("gentile p=2", 6, range(4)))),
    ("rows match closed forms to n=40", Range(closed_form_failure, (41, 42), (81, 82), (13, 10))),
    ("convolutions over all splits to n=8", Range(
        convolution_failure, (("binomial",), 9, 6), (tuple(MATRICES), 13, 12),
        (tuple(MATRICES), 13, 8))),
    ("integer rows match schoolbook rule powers to n=8", Range(matrix_route_failure, (9, 8))),
]
