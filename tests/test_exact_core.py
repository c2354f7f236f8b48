import math
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from exactcomb import counting
from exactcomb.exact_core import (
    CACHE_SIZE,
    RowTable,
    factorial,
    format_int,
    format_rational,
    gcd,
    parse_int,
    parse_rational,
)
from exactcomb.number_theory import euler_phi
from exactcomb.recursive_matrix import binomial_matrix


def test_factorial_golden():
    assert factorial(0) == 1  # empty product
    assert factorial(4) == 24
    # independent route: the C-implemented library factorial
    assert factorial(12) == math.factorial(12) == 479001600


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-1)


def _gcd_by_factorization(a, b):
    # common prime powers, the schoolbook definition
    from exactcomb.number_theory import factorize

    fa = dict(factorize(abs(a)))
    fb = dict(factorize(abs(b)))
    out = 1
    for p in fa:
        if p in fb:
            out *= p ** min(fa[p], fb[p])
    return out


def test_gcd_golden():
    assert gcd(3, 20) == 1
    assert gcd(7, 0) == 7
    assert gcd(-7, 0) == 7
    assert gcd(30, 210) == 30 == _gcd_by_factorization(30, 210)


def test_gcd_rejects_double_zero():
    with pytest.raises(ValueError):
        gcd(0, 0)


def test_gcd_properties():
    import random

    rng = random.Random(3)
    for _ in range(300):
        a = rng.randint(-400, 400)
        b = rng.randint(-400, 400)
        if a == b == 0:
            continue
        g = gcd(a, b)
        assert g == gcd(b, a) > 0
        assert a % g == 0 and b % g == 0
        if a and b:
            assert g == _gcd_by_factorization(a, b)


def test_fraction_invariants():
    import random

    rng = random.Random(4)
    for _ in range(200):
        p = rng.randint(-100, 100)
        q = rng.randint(1, 100)
        r = Fraction(p, q)
        assert r.denominator > 0
        assert math.gcd(abs(r.numerator), r.denominator) == 1


def test_int_parse_print_roundtrip():
    for n in (0, 7, -7, 10**30, -(10**30)):
        assert parse_int(format_int(n)) == n
    with pytest.raises(ValueError):
        parse_int("12.5")
    with pytest.raises(ValueError):
        parse_int("abc")


def test_rational_parse_print_roundtrip():
    for r in (Fraction(0), Fraction(3, 7), Fraction(-22, 12), Fraction(5)):
        assert parse_rational(format_rational(r)) == r
    assert format_rational(Fraction(4, 2)) == "2"
    assert parse_rational("-6/4") == Fraction(-3, 2)
    # a bad input, not a disagreement between routes (ZeroDivisionError)
    with pytest.raises(ValueError, match="zero denominator in '1/0'"):
        parse_rational("1/0")


def test_caches_are_bounded():
    for cached in (counting.binomial, counting.multiset_coeff, euler_phi):
        assert cached.cache_parameters()["maxsize"] == CACHE_SIZE


def test_row_table_builds_each_row_once_under_threads():
    # thread i asks for rows i, i+8, ... from the top down, so the 8 threads
    # race to build the same rows of one table and of one matrix
    built = []

    def counted(step):
        def step_once(rows, m):
            built.append((step, m))
            return step(rows, m)
        return step_once

    table = RowTable([1], counted(counting._stirling2_row))
    matrix = binomial_matrix(24)
    matrix._table._step = counted(matrix._table._step)

    def ask(i):
        return [(n, table[n], matrix.row_series(n)) for n in range(152 + i, -1, -8)]

    with ThreadPoolExecutor(8) as pool:
        answers = [answer for rows in pool.map(ask, range(8)) for answer in rows]
    assert sorted(n for n, _, _ in answers) == list(range(160))
    serial = binomial_matrix(24)
    for n, row, series in answers:
        assert row == [counting.stirling2(n, k) for k in range(n + 1)]
        assert series == serial.row_series(n)
    assert len(built) == len(set(built)) == 2 * 159
