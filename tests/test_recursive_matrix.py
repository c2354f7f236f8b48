import pytest

import exactcomb.recursive_matrix as rm
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


def _naive_rows(p, order, top):
    # row n of the powers of 1 + t + ... + t^p up to t^order, each entry the
    # sum of the p + 1 entries at and left of it in the row before
    row = [1] + [0] * order
    for _ in range(top + 1):
        yield row
        row = [sum(row[max(0, k - p):k + 1]) for k in range(order + 1)]


def test_rows_are_the_truncated_rule_powers():
    for order in range(14):
        for p in range(1, 18):
            mat = RecursiveMatrix(p, order)
            assert mat.rule == FormalSeries([int(k <= p) for k in range(order + 1)])
            assert mat.table(25, order + 1) == list(_naive_rows(p, order, 24)), (p, order)


# builder: (the matrix of an order, its p)
BUILDERS = {"binomial": (binomial_matrix, 1),
            "multiset": (multiset_matrix, None),
            "gentile p=3": (lambda order: gentile_matrix(3, order), 3),
            "gentile p=7": (lambda order: gentile_matrix(7, order), 7)}
# orders below, at and above p; multiset's p is above any order
ORDERS = [pytest.param(build, order, id=f"{name}-order{order}")
          for name, (build, p) in BUILDERS.items()
          for order in (sorted({0, p - 1, p, 3 * p + 2}) if p else (0, 1, 6, 40))]


@pytest.mark.parametrize("build, order", ORDERS)
def test_the_power_check_passes_on_every_row(build, order):
    mat = build(order)
    check = mat._table._check
    mat.table(201, order + 1)
    for n in range(201):
        check(mat._table[n], n)


def test_a_table_runs_one_check(monkeypatch):
    calls = []
    check = rm.check_power_row
    monkeypatch.setattr(rm, "check_power_row",
                        lambda label, *args: calls.append(label) or check(label, *args))
    for mat in (binomial_matrix(12), multiset_matrix(12), gentile_matrix(2, 12)):
        calls.clear()
        assert mat.table(30, 13) == mat.table(30, 13)
        assert len(calls) == 1 and calls[0][0] == "matrix row" and calls[0][-1] == 29
    assert binomial_matrix(5).table(0, 3) == [] and calls == [calls[0]]


@pytest.mark.parametrize("family", ["binomial", "multiset", "gentile p=3"])
def test_a_wrong_row_below_the_top_fails_the_top_row_check(family):
    # row 17 off by one at column 5 leaves every later row off by one there
    # (the rule's constant is 1), so the check of row 60 sees it and the
    # table keeps none of the new rows
    build = BUILDERS[family][0]
    mat = build(30)
    table = mat._table
    mat.table(5, 31)  # rows 0..4, built and checked before the fault
    step, kept = table._step, list(table._rows)

    def wrong(prev, m):
        row = step(prev, m)
        if m == 17:
            row[5] += 1
        return row

    table._step = wrong
    with pytest.raises(ArithmeticError, match=r"matrix row\(\d+,60\)"):
        mat.table(61, 31)
    assert table._rows == kept
    table._step = step
    assert mat.table(61, 31) == build(30).table(61, 31)


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
