import operator
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from streamcalc import FieldMismatch, Polynomial, PrimeField, QQ, RationalFunction
from util import poly

GF7 = PrimeField(7)


def test_trailing_zeros_trimmed():
    p = poly(QQ, 1, 2, 0, 0)
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert p.degree == 1


def test_zero_degree_sentinel_below_everything():
    zero = Polynomial.zero(QQ)
    assert zero.degree == -1
    assert zero.degree < poly(QQ, 5).degree


def test_difference_of_squares():
    assert poly(QQ, 1, 1) * poly(QQ, 1, -1) == poly(QQ, 1, 0, -1)


def test_coefficient_zero():
    assert poly(QQ, 3, 2).coefficient(0) == 3
    assert Polynomial.zero(QQ).coefficient(0) == 0


def test_coefficients_outside_the_degree_are_zero():
    p = poly(QQ, 3, 2)
    assert [p.coefficient(i) for i in (-2, -1, 0, 1, 2)] == [0, 0, 3, 2, 0]
    assert poly(GF7, 3, 2).coefficient(-2) == GF7.zero()


def test_gcd_example():
    # gcd(X^2 - 1, X - 1) = X - 1, monic
    g = poly(QQ, -1, 0, 1).gcd(poly(QQ, -1, 1))
    assert g == poly(QQ, -1, 1)


def test_gcd_is_monic():
    g = poly(QQ, -2, 2).gcd(poly(QQ, -4, 4))
    assert g == poly(QQ, -1, 1)
    assert g.leading == 1


def test_gcd_with_zero():
    p = poly(QQ, 2, 4)
    assert p.gcd(Polynomial.zero(QQ)) == p.monic()
    assert not Polynomial.zero(QQ).gcd(Polynomial.zero(QQ))


def test_divmod():
    q, r = divmod(poly(QQ, -1, 0, 1), poly(QQ, -1, 1))
    assert q == poly(QQ, 1, 1)
    assert not r
    q, r = divmod(poly(QQ, 1, 1, 1), poly(QQ, 0, 1))
    assert q == poly(QQ, 1, 1) and r == poly(QQ, 1)


def test_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(poly(QQ, 1), Polynomial.zero(QQ))


def test_gf_polynomial_arithmetic():
    p = poly(GF7, 3, 5) * poly(GF7, 4)
    assert p == poly(GF7, 5, 6)
    assert poly(GF7, 1, 1).gcd(poly(GF7, 6, 1)) == Polynomial.one(GF7)


def test_shifted_down():
    assert poly(QQ, 0, 2, 3).shifted_down() == poly(QQ, 2, 3)
    with pytest.raises(ValueError):
        poly(QQ, 1, 2).shifted_down()


def test_format_terms():
    assert str(poly(QQ, 1, -2, 1)) == "1 - 2*X + X^2"
    assert str(poly(QQ, 0, 1)) == "X"
    assert str(poly(QQ, 2, 0, Fraction(1, 2))) == "2 + 1/2*X^2"
    assert str(poly(QQ, -1, -1)) == "-1 - X"
    assert str(Polynomial.zero(QQ)) == "0"
    assert str(poly(QQ, 0, -1)) == "-X"
    assert str(poly(GF7, 1, 6)) == "1 + 6*X"


def test_rational_function_normalization():
    # (X^2 - 1)/(X - 1) reduces to X + 1
    rf = RationalFunction(poly(QQ, -1, 0, 1), poly(QQ, -1, 1))
    assert rf == RationalFunction.from_polynomial(poly(QQ, 1, 1))
    # denominator is made monic
    rf = RationalFunction(poly(QQ, 1), poly(QQ, 2, -2))
    assert rf.den.leading == 1


def test_rational_function_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        RationalFunction(poly(QQ, 1), Polynomial.zero(QQ))


def test_rational_function_arithmetic():
    x = RationalFunction.x(QQ)
    one = RationalFunction.one(QQ)
    inv = one / (one - x)
    assert inv * (one - x) == one
    assert (x / x) == one  # denominator vanishing at 0 is fine in k(X)
    assert (one - x) - (one - x) == RationalFunction.zero(QQ)


def test_rational_function_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        RationalFunction.one(QQ) / RationalFunction.zero(QQ)


@given(
    st.sampled_from((QQ, PrimeField(2), PrimeField(7), PrimeField(101))),
    st.lists(st.integers(-5, 5), min_size=0, max_size=4),
    st.integers(min_value=0, max_value=12),
)
def test_power_matches_repeated_product(field, coeffs, k):
    # covers Miller's recurrence (p(0) != 0 and k * deg < char) and the
    # square-and-multiply fallback (p(0) = 0 or small characteristic)
    p = Polynomial(field, coeffs)
    expected = Polynomial.one(field)
    for _ in range(k):
        expected = expected * p
    assert p**k == expected


@given(st.sampled_from((2, 3, 7)), st.booleans(),
       st.lists(st.integers(0, 6), max_size=5), st.integers(0, 60))
def test_power_in_small_characteristic_matches_repeated_products(p, divisible_by_x, coeffs, k):
    # f^k with k >= p goes through f^p = f(X^p); p(0) = 0 is covered too
    field = PrimeField(p)
    f = Polynomial(field, ([0] if divisible_by_x else []) + coeffs)
    expected = Polynomial.one(field)
    for _ in range(k):
        expected = expected * f
    assert f ** k == expected


@pytest.mark.parametrize(
    "op",
    [operator.add, operator.sub, operator.mul, divmod, operator.floordiv, operator.mod,
     Polynomial.gcd],
)
@pytest.mark.parametrize(
    "other",
    [1, Fraction(1, 2), RationalFunction.one(QQ), Polynomial.one(GF7)],
    ids=["int", "fraction", "kx", "gf7"],
)
def test_operands_of_another_type_or_field_are_refused(op, other):
    with pytest.raises(FieldMismatch):
        op(Polynomial.one(QQ), other)
