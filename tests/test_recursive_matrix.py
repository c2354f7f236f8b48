from fractions import Fraction

import pytest

from exactcomb.counting import binomial, gentile_coeff, multiset_coeff
from exactcomb.recursive_matrix import (
    RecursiveMatrix,
    binomial_matrix,
    gentile_matrix,
    multiset_matrix,
)
from exactcomb.series import FormalSeries
from exactcomb.verify.series import schoolbook_power


def test_row_series_golden():
    m = binomial_matrix(6)
    assert m.row_series(0) == FormalSeries.one(6)
    assert list(m.row_series(3).coeffs[:4]) == [1, 3, 3, 1]
    g = gentile_matrix(2, 6)
    assert [int(c) for c in g.row_series(3).coeffs] == [1, 3, 6, 7, 6, 3, 1]


def test_row_series_equals_rule_power():
    for mat in (binomial_matrix(8), multiset_matrix(8), gentile_matrix(3, 8)):
        for n in range(7):
            assert mat.row_series(n) == mat.rule**n == schoolbook_power(mat.rule, n)


def test_entry_golden():
    assert binomial_matrix(4).entry(3, 2) == 3
    assert multiset_matrix(5).entry(3, 4) == 15
    assert gentile_matrix(2, 6).entry(3, 3) == 7


def test_builders_against_tables():
    # the printed tables themselves are checked in test_acceptance, criterion 1
    assert all(multiset_matrix(9).entry(1, k) == 1 for k in range(10))


def test_gentile_p1_is_binomial():
    g1 = gentile_matrix(1, 8)
    b = binomial_matrix(8)
    for n in range(9):
        for k in range(9):
            assert g1.entry(n, k) == b.entry(n, k)


def test_gentile_rejects_p0():
    with pytest.raises(ValueError):
        gentile_matrix(0, 4)


def test_vandermonde_golden():
    b = binomial_matrix(6)
    # direct Pascal value for C(5,2)
    assert b.vandermonde_convolve(2, 3, 2) == 10 == binomial(5, 2)
    m = multiset_matrix(6)
    assert m.vandermonde_convolve(1, 1, 3) == 4 == multiset_coeff(2, 3)
    for k in range(5):
        assert m.vandermonde_convolve(0, 3, k) == m.entry(3, k)


def test_entries_match_closed_forms():
    # whole occupancy rows, past k = n p, for the bounds MATRICES leaves out
    for p in (1, 3, 4, 5):
        mat = gentile_matrix(p, 12 * p + 2)
        assert all(mat.entry(n, k) == gentile_coeff(p, n, k)
                   for n in range(13) for k in range(mat.order + 1))


def test_pascal_recursion_entrywise():
    b = binomial_matrix(9)
    for n in range(1, 12):
        for k in range(1, 10):
            assert b.entry(n, k) == b.entry(n - 1, k - 1) + b.entry(n - 1, k)


def test_multiset_step2_recursion():
    m = multiset_matrix(9)
    for n in range(1, 12):
        for k in range(1, 10):
            assert m.entry(n, k) == m.entry(n, k - 1) + m.entry(n - 1, k)


def test_gentile_recursion_and_vanishing():
    p = 3
    g = gentile_matrix(p, 12)
    for n in range(1, 6):
        for k in range(13):
            expect = sum(g.entry(n - 1, k - i) for i in range(p + 1) if k - i >= 0)
            assert g.entry(n, k) == expect
            if k > n * p:
                assert g.entry(n, k) == 0


def test_rule_needs_integer_terms_only_up_to_the_order():
    m = RecursiveMatrix(FormalSeries([1, 1, Fraction(1, 2)]), 1)
    assert m.table(3, 2) == [[1, 0], [1, 1], [1, 2]]


def test_integral_rows_build_no_fraction(fraction_news):
    m = gentile_matrix(2, 10)
    row, value = m.row_series(6), m.entry(7, 3)
    assert fraction_news == []
    assert row == schoolbook_power(m.rule, 6) and value == gentile_coeff(2, 7, 3)


def test_column_guard():
    b = binomial_matrix(3)
    with pytest.raises(IndexError):
        b.entry(1, 4)
    with pytest.raises(IndexError):
        b.table(2, 5)
