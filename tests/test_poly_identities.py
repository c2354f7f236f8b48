from fractions import Fraction

import pytest

import exactcomb.counting as ct
import exactcomb.poly_identities as poly


def test_rising_falling_golden():
    # expand x(x+1)(x+2) and x(x-1)(x-2) by schoolbook multiplication
    def expand(roots):
        out = [1]
        for r in roots:
            # multiply by (x - r)
            nxt = [0] * (len(out) + 1)
            for i, c in enumerate(out):
                nxt[i + 1] += c
                nxt[i] += -r * c
            out = nxt
        return tuple(out)

    assert poly.rising_poly(3) == expand([0, -1, -2]) == (0, 2, 3, 1)
    assert poly.falling_poly(0) == (1,)
    assert poly.falling_poly(3) == expand([0, 1, 2]) == (0, 2, -3, 1)


def test_rising_expansion_matches_cycle_counts():
    assert poly.rising_expansion_coeffs(0) == [1]
    assert poly.rising_expansion_coeffs(3) == [0, 2, 3, 1]
    # regression guard: row 4 is 0, 6, 11, 6, 1 (a frequently mistyped row)
    assert poly.rising_expansion_coeffs(4) == [0, 6, 11, 6, 1]
    for n in range(13):
        coeffs = poly.rising_expansion_coeffs(n)
        assert coeffs == [ct.cycle_count(n, k) for k in range(n + 1)]


def test_falling_expansion_matches_signed_stirling():
    for n in range(13):
        coeffs = poly.falling_expansion_coeffs(n)
        assert coeffs == [ct.stirling1_signed(n, k) for k in range(n + 1)]
        assert coeffs == [
            (-1) ** (n - k) * ct.cycle_count(n, k) for k in range(n + 1)
        ]


def test_power_to_falling_golden():
    assert poly.power_to_falling(2) == [0, 1, 1]
    assert poly.power_to_falling(0) == [1]
    assert poly.power_to_falling(4) == [0, 1, 7, 6, 1]


def test_evaluate():
    assert poly.evaluate((1, 0, 1), 2) == 5
    # E_m(x^n) = m^n = sum S(n,k) (m)_k
    for m in range(7):
        for n in range(7):
            xs = poly.trim([0] * n + [1])
            assert poly.evaluate(xs, m) == m**n
            assert m**n == sum(
                ct.stirling2(n, k) * ct.falling_factorial(m, k)
                for k in range(n + 1)
            )
    # oracle: direct product evaluation of the falling factorial at -1
    direct = (-1) * (-1 - 1) * (-1 - 2)
    assert poly.evaluate(poly.falling_poly(3), -1) == direct == -6
    assert poly.evaluate(poly.falling_poly(3), Fraction(1, 2)) == Fraction(3, 8)


def test_identity_principle_constructively():
    # two degree-<=10 polynomials agreeing on 11 points are equal
    import random

    rng = random.Random(12)
    for _ in range(30):
        a = poly.trim([rng.randint(-9, 9) for _ in range(11)])
        b = poly.trim([rng.randint(-9, 9) for _ in range(11)])
        same_values = all(
            poly.evaluate(a, x) == poly.evaluate(b, x) for x in range(11)
        )
        assert same_values == (a == b)
        assert all(poly.evaluate(a, x) == poly.evaluate(a, x) for x in range(11))


def test_stirling_inverse():
    assert poly.stirling_inverse_check(1)
    assert poly.stirling_inverse_check(4)
    assert poly.stirling_inverse_check(12)
    with pytest.raises(ValueError):
        poly.stirling_inverse_check(31)


def test_poly_text():
    assert poly.poly_text((1, 0, 2)) == "1 + 0*x + 2*x^2"
    assert poly.poly_text(()) == "0"
