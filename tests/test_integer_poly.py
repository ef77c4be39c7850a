"""``Polynomial`` on the field's integer form against the boxed arithmetic.

Every operation of ``Polynomial`` and the ``Quotient`` constructor run on
the ints of the integer form (coefficient i is ints[i] / d); the references
in ``tests/util.py`` run on field elements, one boxed operation at a time.
Over Q the coefficients are signed, small or of 70 bits, over every kind of
denominator of ``util.DENOMINATORS`` (40-digit ones among them); over GF(2),
GF(101) and GF(2^61 - 1) they are any ints, coerced.  Zero and constant
operands, and polynomials that X divides, are drawn on purpose.  Each
result must also be in the integer form, which is unique: over GF(p)
residues over 1, over Q d > 0 with gcd(d, *ints) = 1, no trailing zeros.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcalc import NotInvertibleAtZero, Polynomial, PrimeField, QQ, RationalFunction, RationalStream
from streamcalc.poly import format_terms
from util import (
    DENOMINATORS,
    boxed_add,
    boxed_divmod,
    boxed_gcd,
    boxed_monic,
    boxed_mul,
    boxed_neg,
    boxed_power,
    boxed_reduction,
    boxed_scale,
    boxed_shifted_down,
)

GF2, GF101, MERSENNE = PrimeField(2), PrimeField(101), PrimeField(2**61 - 1)
FIELDS = [QQ, GF2, GF101, MERSENNE]
NUMERATORS = st.integers(-9, 9) | st.integers(-(2**70), 2**70)


@st.composite
def scalars(draw, field, kind):
    """A scalar of ``field``; over Q a signed numerator over a denominator of ``kind``."""
    if field is QQ:
        return Fraction(draw(NUMERATORS), draw(DENOMINATORS[kind]))
    return field.coerce(draw(NUMERATORS))


@st.composite
def polynomials(draw, field):
    """Zero, a constant, X^v g, or a polynomial of degree up to 6, its
    coefficients over one kind of denominator."""
    kind = draw(st.sampled_from(sorted(DENOMINATORS)))
    shape = draw(st.sampled_from(["zero", "constant", "shifted", "general"]))
    if shape == "zero":
        return Polynomial.zero(field)
    length = 1 if shape == "constant" else draw(st.integers(1, 7))
    coeffs = draw(st.lists(scalars(field, kind), min_size=length, max_size=length))
    if shape == "shifted":
        coeffs = [field.zero()] * draw(st.integers(1, 3)) + coeffs
    return Polynomial(field, coeffs)


def in_integer_form(p):
    """Whether ``p`` holds the unique integer form of its coefficients, and
    boxes them as the checked constructor does."""
    field, ints, d = p.field, p.ints, p.d
    if type(ints) is not tuple or ints and not ints[-1]:
        return False
    if field.characteristic:
        canonical = d == 1 and all(0 <= c < field.characteristic for c in ints)
    else:
        canonical = d > 0 and gcd(d, *ints) == 1
    return canonical and p == Polynomial(field, p.coeffs)


def same(result, expected):
    """Equal polynomials, with equal boxed coefficients, the result in the integer form."""
    return in_integer_form(result) and result == expected and result.coeffs == expected.coeffs


@settings(max_examples=300)
@given(st.sampled_from(FIELDS), st.data())
def test_ring_operations_are_the_boxed_arithmetic(field, data):
    a, b = data.draw(polynomials(field)), data.draw(polynomials(field))
    c = data.draw(scalars(field, data.draw(st.sampled_from(sorted(DENOMINATORS)))) | st.just(field.zero()))
    assert in_integer_form(a) and in_integer_form(b)
    assert same(a + b, boxed_add(a, b))
    assert same(a - b, boxed_add(a, boxed_neg(b)))
    assert same(-a, boxed_neg(a))
    assert same(a * b, boxed_mul(a, b))
    assert same(a.scale(c), boxed_scale(a, c))
    assert [a.coefficient(i) for i in range(-1, len(a.coeffs) + 2)] == [field.zero(), *a.coeffs, field.zero(), field.zero()]
    if a:
        assert a.leading == a.coeffs[-1]


@settings(max_examples=300)
@given(st.sampled_from(FIELDS), st.data())
def test_division_monic_gcd_and_shift_are_the_boxed_arithmetic(field, data):
    a, b = data.draw(polynomials(field)), data.draw(polynomials(field))
    if b:
        quotient, remainder = divmod(a, b)
        expected = boxed_divmod(a, b)
        assert same(quotient, expected[0]) and same(remainder, expected[1])
        assert same(a // b, expected[0]) and same(a % b, expected[1])
    else:
        with pytest.raises(ZeroDivisionError):
            divmod(a, b)
    assert same(a.monic(), boxed_monic(a))
    assert same(a.gcd(b), boxed_gcd(a, b))
    shifted = Polynomial.x(field) * a
    assert same(shifted.shifted_down(), boxed_shifted_down(shifted))


@settings(max_examples=200)
@given(st.sampled_from(FIELDS), st.data())
def test_power_is_repeated_boxed_products(field, data):
    """k below 8 on every branch that small k reach; over GF(2) and GF(101)
    also k around the characteristic on small polynomials: the Frobenius
    split and square-and-multiply."""
    a = data.draw(polynomials(field))
    k = data.draw(st.integers(0, 7))
    assert same(a**k, boxed_power(a, k))
    if field in (GF2, GF101) and a.degree <= 2:
        p = field.characteristic
        k = data.draw(st.sampled_from((p - 1, p, p + 1, 2 * p + 1)) | st.integers(1, p + 3))
        assert same(a**k, boxed_power(a, k))


UNIT_INDEX = {RationalFunction: lambda den: len(den.coeffs) - 1, RationalStream: lambda den: 0}


@settings(max_examples=300)
@given(st.sampled_from(FIELDS), st.sampled_from(sorted(UNIT_INDEX, key=str)), st.booleans(), st.data())
def test_quotient_constructor_is_the_boxed_reduction(field, kind, common, data):
    """num/den reduced by the gcd and scaled so that den's coefficient at
    the kind's unit index is 1, with a planted common factor half the time."""
    num, den = data.draw(polynomials(field)), data.draw(polynomials(field))
    if common:
        factor = data.draw(polynomials(field))
        num, den = num * factor, den * factor
    try:
        q = kind(num, den)
    except (ZeroDivisionError, NotInvertibleAtZero):
        assert not den or kind is RationalStream and not den.coeffs[0]
        return
    expected = boxed_reduction(num, den, UNIT_INDEX[kind])
    assert same(q.num, expected[0]) and same(q.den, expected[1])


@settings(max_examples=100)
@given(st.sampled_from(FIELDS), st.data())
def test_quotient_text_is_over_the_unit_constant_term(field, data):
    """``str`` of a k(X) quotient whose denominator has a nonzero constant
    term prints num/den scaled so that that term is 1."""
    num, den = data.draw(polynomials(field)), data.draw(polynomials(field))
    if not den.coefficient(0):
        return
    q = RationalFunction(num, den)
    inverse = field.inv(q.den.coeffs[0])
    top, bottom = boxed_scale(q.num, inverse), boxed_scale(q.den, inverse)
    if bottom == Polynomial.one(field):
        assert str(q) == format_terms(top)
    else:
        assert str(q) == f"({format_terms(top)})/({format_terms(bottom)})"
