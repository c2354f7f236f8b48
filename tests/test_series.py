import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exactcomb import series
from exactcomb.series import FormalSeries, _mul_schoolbook, exp_series, geometric_series
from exactcomb.verify.series import schoolbook_compose, schoolbook_power

small_series = st.lists(
    st.integers(min_value=-6, max_value=6), min_size=5, max_size=5
).map(FormalSeries)

# rational coefficients with unequal denominators, so the product's common
# denominator is exercised; orders 0-12 differ, so truncation is too
rational_series = st.lists(
    st.one_of(st.just(0), st.fractions(min_value=-5, max_value=5, max_denominator=12)),
    min_size=1, max_size=13,
).map(FormalSeries)


def convolve(a, b):
    # schoolbook convolution, kept independent of FormalSeries.__mul__
    n = min(a.order, b.order)
    return [
        sum(a.coeffs[i] * b.coeffs[k - i] for i in range(k + 1))
        for k in range(n + 1)
    ]


def test_add_golden():
    one_plus = FormalSeries([1, 1])
    one_minus = FormalSeries([1, -1])
    assert (one_plus + one_minus) == FormalSeries([2, 0])
    a = FormalSeries([1, 2, 1])
    assert FormalSeries.zero(2) + a == a
    assert (FormalSeries([1, 2, 1]) + FormalSeries([1, 1, 0])) == FormalSeries([2, 3, 1])


def test_mul_golden():
    sq = FormalSeries([1, 1, 0]) * FormalSeries([1, 1, 0])
    assert sq == FormalSeries([1, 2, 1])
    geo = geometric_series(6)
    assert FormalSeries([1, -1] + [0] * 5) * geo == FormalSeries.one(6)
    tri = FormalSeries([1, 1, 1, 0, 0])
    assert (tri * tri).coeffs == tuple(
        Fraction(c) for c in (1, 2, 3, 2, 1)
    ) == tuple(convolve(tri, tri))


def test_pow_golden():
    cube = FormalSeries([1, 1, 0, 0]) ** 3
    assert cube == FormalSeries([1, 3, 3, 1])
    a = FormalSeries([5, -2, 7])
    assert a**0 == FormalSeries.one(2)
    assert (geometric_series(4) ** 3).coeffs == tuple(
        Fraction(c) for c in (1, 3, 6, 10, 15)
    )


def test_compose_golden():
    f = FormalSeries([3, 1, -2, 5])
    assert f.compose(FormalSeries([0, 1, 0, 0])) == f
    lin = FormalSeries([1, 1, 0])
    assert lin.compose(FormalSeries([0, 1, 1])) == FormalSeries([1, 1, 1])
    # exp(y) at y = 2t, expanded term by term: sum (2t)^j / j!
    comp = exp_series(4).compose(FormalSeries([0, 2, 0, 0, 0]))
    by_hand = [Fraction(0)] * 5
    from exactcomb.exact_core import factorial

    for j in range(5):
        by_hand[j] = Fraction(2**j, factorial(j))
    assert list(comp.coeffs) == by_hand == [1, 2, 2, Fraction(4, 3), Fraction(2, 3)]


def test_compose_rejects_nonzero_constant():
    with pytest.raises(ValueError):
        FormalSeries([1, 1]).compose(FormalSeries([1, 1]))


def test_geometric_series():
    assert geometric_series(0) == FormalSeries([1])
    assert geometric_series(4) == FormalSeries([1, 1, 1, 1, 1])
    for k in range(1, 6):
        prod = FormalSeries([1, -1] + [0] * (k - 1)) * geometric_series(k)
        assert all(prod.coeff_at(j) == (1 if j == 0 else 0) for j in range(k))


def test_coeff_at():
    assert FormalSeries([1, 3]).coeff_at(1) == 3
    assert (FormalSeries([1, 1, 0, 0]) ** 3).coeff_at(2) == 3
    assert (geometric_series(5) ** 2).coeff_at(4) == 5
    with pytest.raises(IndexError):
        FormalSeries([1, 2]).coeff_at(2)


def test_truncation_is_min_order():
    a = FormalSeries([1, 2, 3, 4])
    b = FormalSeries([1, 1])
    assert (a + b).order == 1
    assert (a * b).order == 1


@given(small_series, small_series)
@settings(max_examples=60)
def test_mul_commutative_and_matches_convolution(a, b):
    assert a * b == b * a
    assert list((a * b).coeffs) == convolve(a, b)


# lists built from runs of 1-5 equal terms, so that runs of WINDOW_RUN or more
# come up, of 1 and of other values, as do zero tails
BIG = 2**64 + 3
TERMS = (0, 1, -1, 2, BIG)
run_lists = st.lists(st.tuples(st.sampled_from(TERMS), st.integers(1, 5)), max_size=6).map(
    lambda runs: [x for x, width in runs for _ in range(width)])


@given(run_lists, run_lists, st.booleans())
@settings(max_examples=300)
@example([2, 2, 2, -1, -1, -1], [1, 2, 3, 4, 5, 6, 7], False)  # runs of 2s and of -1s
@example([BIG] * 4 + [0, 0], [1, -1, 2, 1, 1], True)  # run cut at len(b), zero tail
@example([1, 1, 1, 1, 1, 1, 1], [2, 1, 0], True)  # len(a) > len(b)
@example([0, 0, 0], [1, 2, 3], False)
@example([1, 1, 1], [], False)
def test_convolve_matches_a_double_loop(a, b, as_tuples):
    want = [0] * len(b)
    for i, x in enumerate(a):
        for j in range(len(b) - i):
            want[i + j] += x * b[j]
    if as_tuples:
        a, b = tuple(a), tuple(b)
    got = series.convolve(a, b)
    assert type(got) is list and got is not b
    assert got == want


@given(small_series, small_series, small_series)
@settings(max_examples=60)
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * FormalSeries.one(a.order) == a


def test_text_and_json():
    s = FormalSeries([1, Fraction(1, 2), 0])
    assert s.text() == "1 + 1/2*t + 0*t^2 (order 2)"
    assert s.to_json() == ["1", "1/2", "0"]


@given(rational_series, rational_series)
@settings(max_examples=100)
def test_integer_product_matches_schoolbook(a, b):
    assert a * b == _mul_schoolbook(a, b)


@given(rational_series, st.integers(min_value=0, max_value=12))
@settings(max_examples=60)
def test_power_matches_repeated_schoolbook_products(a, n):
    assert a**n == schoolbook_power(a, n)


@given(rational_series, rational_series)
@settings(max_examples=60)
def test_compose_matches_schoolbook_horner(f, g):
    g = FormalSeries((0,) + g.coeffs[1:])
    assert f.compose(g) == schoolbook_compose(f, g)


@given(rational_series, rational_series,
       st.fractions(min_value=-5, max_value=5, max_denominator=12),
       st.integers(min_value=0, max_value=14))
@settings(max_examples=100)
def test_integer_form_matches_fraction_routes(a, b, c, order):
    # a keeps the Fractions it was built from; a product builds its own
    for s in (a, a * b):
        assert type(s.coeffs) is tuple
        assert all(type(x) is Fraction and math.gcd(x.numerator, x.denominator) == 1
                   for x in s.coeffs)
        assert s.den > 0 and math.gcd(s.den, *s.nums) == 1
    assert a == FormalSeries(a.coeffs)
    assert (a + b).coeffs == tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
    assert (a - b).coeffs == tuple(x - y for x, y in zip(a.coeffs, b.coeffs))
    assert a.scale(c).coeffs == tuple(c * x for x in a.coeffs)
    padded = a.coeffs + (Fraction(0),) * order
    assert a.truncate(order).coeffs == padded[: order + 1]


def test_equal_series_have_equal_forms():
    a = FormalSeries([Fraction(2, 4), 1])
    b = FormalSeries([Fraction(1, 2), Fraction(3, 3)])
    assert a == b and (a.nums, a.den) == (b.nums, b.den) == ((1, 2), 2)
    # (1 + t)/2 times 2 + 4t is (2 + 6t)/2, which reduces to 1 + 3t
    product = FormalSeries([Fraction(1, 2), Fraction(1, 2)]) * FormalSeries([2, 4])
    assert (product.nums, product.den) == ((1, 3), 1)
    assert product == FormalSeries([1, 3])
    assert FormalSeries.from_form([3, 6, 9], 6) == FormalSeries([Fraction(1, 2), 1, Fraction(3, 2)])


def test_operations_build_no_fraction(fraction_news):
    a = FormalSeries.from_form([3, -1, 0, 2, 5], 7)
    b = FormalSeries.from_form([1, 4, -2, 0, 1], 3)
    g = FormalSeries.from_form([0, 2, 1, -1, 3], 5)
    results = [a * b, a**5, a.compose(g), a + b, a - b, a.scale(-2),
               a.truncate(2), exp_series(40), exp_series(40).compose(g)]
    assert fraction_news == []
    assert results[:3] == [_mul_schoolbook(a, b), schoolbook_power(a, 5),
                           schoolbook_compose(a, g)]


def test_first_coeffs_read_waits_on_no_other_series(parking):
    # one series' `coeffs` is built while another's build is held inside
    # its computation, where it reads the numerators
    class Held(tuple):
        def __iter__(self):
            parking.hold()
            return tuple.__iter__(self)

    held, other = FormalSeries.from_form([1, 2, 3], 5), FormalSeries.from_form([4, 5, 6], 7)
    held.nums = Held(held.nums)
    waited, got = parking.read_beside(lambda: held.coeffs, lambda: other.coeffs)
    assert not waited, "a series' coeffs waited for another series' build"
    assert got == [(Fraction(4, 7), Fraction(5, 7), Fraction(6, 7))]
    assert held.coeffs == (Fraction(1, 5), Fraction(2, 5), Fraction(3, 5))
