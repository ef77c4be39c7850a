"""The one reduced quotient behind k(X) and rational streams.

``RationalFunction`` and ``RationalStream`` share their constructor and
arithmetic; these tests pin what each hook and the trusted constructors
promise: every result is reduced and normalized, the trusted constructors
agree with the checked one, and the two kinds never mix.
"""

import operator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from streamcalc import (
    FieldMismatch,
    NotInvertibleAtZero,
    Polynomial,
    PrimeField,
    QQ,
    RationalFunction,
    RationalStream,
    StreamPrefix,
)
from streamcalc.expr import evaluate_text
from streamcalc.poly import FractionField

FIELDS = [QQ, PrimeField(2), PrimeField(101)]
KINDS = [RationalFunction, RationalStream]
OPERATIONS = [operator.add, operator.sub, operator.mul, operator.truediv]


def polynomials(field, max_deg=3):
    return st.lists(st.integers(-9, 9), max_size=max_deg + 1).map(
        lambda cs: Polynomial(field, cs)
    )


@st.composite
def operands(draw, kind, field):
    """Zero, a constant, a polynomial or a general quotient of ``kind``."""
    shape = draw(st.sampled_from(["zero", "constant", "polynomial", "quotient"]))
    if shape == "zero":
        return kind.zero(field)
    if shape == "constant":
        return kind.constant(field, draw(st.integers(-9, 9)))
    if shape == "polynomial":
        return kind.from_polynomial(draw(polynomials(field)))
    num, den = draw(polynomials(field)), draw(polynomials(field))
    try:
        return kind(num, den)
    except (ZeroDivisionError, NotInvertibleAtZero):
        return kind.from_polynomial(num)


def normalized(q) -> bool:
    unit = q.den.leading if isinstance(q, RationalFunction) else q.den.constant_term
    return q.num.gcd(q.den) == Polynomial.one(q.field) and unit == q.field.one()


def prefix(q, n=12):
    return StreamPrefix.from_coefficients(q.field, q.expand(n))


@given(st.data(), st.sampled_from(FIELDS), st.sampled_from(KINDS))
def test_trusted_constructors_equal_the_checked_constructor(data, field, kind):
    p = data.draw(polynomials(field))
    c = data.draw(st.integers(-9, 9))
    one = Polynomial.one(field)
    assert kind.from_polynomial(p) == kind(p, one)
    assert kind.constant(field, c) == kind(Polynomial.constant(field, c), one)
    assert kind.x(field) == kind(Polynomial.x(field), one)
    assert kind.zero(field) == kind(Polynomial.zero(field), one)
    assert kind.one(field) == kind(one, one)


@given(st.data(), st.sampled_from(FIELDS), st.sampled_from(KINDS), st.sampled_from(OPERATIONS))
def test_arithmetic_results_are_reduced_and_normalized(data, field, kind, op):
    a, b = data.draw(operands(kind, field)), data.draw(operands(kind, field))
    if kind is RationalFunction:
        refused, error = b.is_zero, ZeroDivisionError
    else:
        refused, error = b.num.constant_term == field.zero(), NotInvertibleAtZero
    if op is operator.truediv and refused:
        with pytest.raises(error):
            a / b
        return
    result = op(a, b)
    assert type(result) is kind and type(-a) is kind
    assert normalized(result) and normalized(-a)
    if kind is RationalStream:
        x, y = prefix(a), prefix(b)
        oracle = x * y.inverse() if op is operator.truediv else op(x, y)
        assert result.expand(12) == oracle.take(12)
        assert (-a).expand(12) == (-x).take(12)


def test_trusted_constructors_run_no_gcd(monkeypatch):
    def forbidden(*args):
        raise AssertionError("gcd on a value that is already reduced")

    monkeypatch.setattr(Polynomial, "gcd", forbidden)
    assert str(RationalStream.constant(QQ, 3)) == "3"
    assert str(RationalStream.x(QQ)) == "X"
    assert RationalStream.zero(QQ).is_zero
    assert RationalStream.one(QQ).initial_value() == 1
    assert str(RationalStream.from_polynomial(Polynomial(QQ, [1, 2, 3]))) == "1 + 2*X + 3*X^2"
    assert str(evaluate_text("3")) == "3"


def test_streams_and_rational_functions_never_mix():
    num, den = Polynomial(QQ, [1]), Polynomial(QQ, [1, 1])
    stream, function = RationalStream(num, den), RationalFunction(num, den)
    assert (stream.num, stream.den) == (function.num, function.den)
    assert stream != function and function != stream
    with pytest.raises(FieldMismatch):
        FractionField(QQ).coerce(stream)
