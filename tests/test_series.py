from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from thetagw.series import TruncatedSeries, ZMonomial, sqrt_coeff


def series_of(*coeffs, order):
    return TruncatedSeries(coeffs, order)


def test_mul_basic():
    a = series_of(1, 1, order=3)   # 1 + z
    b = series_of(1, -1, order=3)  # 1 - z
    assert a * b == series_of(1, 0, -1, order=3)
    # a non-series compares unequal instead of raising
    assert a != 1


def test_mul_order_additivity():
    for k in (1, 2, 5):
        zk = series_of(*[0] * k, 1, order=2 * k + 1)
        prod = zk * zk
        assert prod.z_order() == 2 * k
        assert prod.coeffs[2 * k] == 1


def test_obstruction_term_leading_coefficient():
    # z * B_k^2 with B_k = (-4)^{-k} z^k has leading term 4^{-2k} z^{2k+1}
    for k in range(1, 5):
        order = 2 * k + 2
        bk = series_of(*[0] * k, Fraction(-1, 4) ** k, order=order)
        z = series_of(0, 1, order=order)
        prod = z * bk * bk
        assert prod.z_order() == 2 * k + 1
        assert prod.coeffs[2 * k + 1] == Fraction(1, 4 ** (2 * k))


def test_truncation_is_min_of_operand_orders():
    a = series_of(1, 2, 3, order=3)
    b = series_of(1, 1, order=2)
    assert (a + b).order == 2
    assert (a * b).order == 2
    assert (a - b).order == 2
    with pytest.raises(ValueError):
        TruncatedSeries([1], 0)
    # coefficients past the order are dropped, missing ones are zero
    assert series_of(1, 2, 3, 4, order=2).coeffs == (1, 2)
    assert series_of(1, order=3).coeffs == (1, 0, 0)


def test_z_order_sentinel():
    assert series_of(order=4).z_order() is None
    assert series_of(0, 0, 5, order=4).z_order() == 2


def _binomial_half(j):
    """(-1)^j * C(1/2, j): the independent route to the sqrt coefficients."""
    num = Fraction(1)
    for i in range(j):
        num *= Fraction(1, 2) - i
    return num / factorial(j) * (-1) ** j


def test_sqrt_coeff_examples():
    assert sqrt_coeff(0) == ZMonomial(Fraction(1), 0)
    assert sqrt_coeff(1) == ZMonomial(Fraction(-1, 2), 1)
    assert sqrt_coeff(2) == ZMonomial(Fraction(-1, 8), 2)
    with pytest.raises(ValueError):
        sqrt_coeff(-1)


def test_sqrt_coeff_matches_generalized_binomial():
    for j in range(33):
        mono = sqrt_coeff(j)
        assert mono.coeff == _binomial_half(j)
        assert mono.exp == j


@pytest.mark.parametrize("J", [1, 2, 4, 8, 16])
def test_sqrt_truncation_squares_to_one_minus_z_over_w(J):
    # in t = z/w the truncated root squares to 1 - t modulo t^{J+1}
    root = TruncatedSeries([sqrt_coeff(j).coeff for j in range(J + 1)], J + 1)
    assert root * root == TruncatedSeries((1, -1), J + 1)


@st.composite
def truncated_series(draw, max_order=32):
    # coefficients are the rationals in [-4, 4] with denominator <= 8, drawn
    # as an integer numerator over an integer denominator (st.fractions
    # spends most of the test's time in its own machinery)
    order = draw(st.integers(1, max_order))
    coeffs = []
    for _ in range(order):
        den = draw(st.integers(1, 8))
        coeffs.append(Fraction(draw(st.integers(-4 * den, 4 * den)), den))
    return TruncatedSeries(coeffs, order)


@settings(max_examples=120, deadline=None)
@given(truncated_series(), truncated_series(), truncated_series())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=120, deadline=None)
@given(truncated_series(), truncated_series())
def test_z_order_additive_under_product(a, b):
    za, zb = a.z_order(), b.z_order()
    prod = a * b
    if za is not None and zb is not None and za + zb < prod.order:
        assert prod.z_order() == za + zb


def test_repr_is_readable():
    s = series_of(1, Fraction(-1, 2), 0, order=4)
    assert repr(s) == "1 + -1/2*z + O(z^4)"
    assert repr(series_of(order=2)) == "0 + O(z^2)"
