"""The one reduced quotient behind k(X) and rational streams.

``RationalFunction`` and ``RationalStream`` share their constructor and
arithmetic; these tests pin what each hook and the trusted constructors
promise: every result is reduced and normalized, the trusted constructors
agree with the checked one, and the two kinds never mix.
"""

import operator

import pytest
from hypothesis import given, settings
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
from streamcalc.poly import FractionField, Quotient

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
    unit = q.den.leading if isinstance(q, RationalFunction) else q.den.coefficient(0)
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
        refused, error = not b, ZeroDivisionError
    else:
        refused, error = b.num.coefficient(0) == field.zero(), NotInvertibleAtZero
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
    assert not RationalStream.zero(QQ)
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


@pytest.mark.parametrize("op", OPERATIONS)
@pytest.mark.parametrize(
    "make_left, right",
    [
        pytest.param(RationalStream.zero, RationalFunction.x(QQ), id="stream0-kx"),
        pytest.param(RationalStream.one, RationalFunction.x(QQ), id="stream1-kx"),
        pytest.param(RationalFunction.zero, RationalStream.x(QQ), id="kx0-stream"),
        pytest.param(RationalFunction.one, RationalStream.one(QQ), id="kx1-stream"),
        pytest.param(RationalStream.one, 1, id="stream1-int"),
        pytest.param(RationalFunction.one, 1, id="kx1-int"),
        pytest.param(RationalStream.one, Polynomial.one(QQ), id="stream1-polynomial"),
        pytest.param(RationalStream.zero, RationalStream.x(PrimeField(7)), id="stream0-gf7"),
        pytest.param(RationalStream.one, RationalStream.one(PrimeField(7)), id="stream1-gf7"),
        pytest.param(RationalFunction.zero, RationalFunction.x(PrimeField(7)), id="kx0-gf7"),
        pytest.param(RationalFunction.one, RationalFunction.one(PrimeField(7)), id="kx1-gf7"),
    ],
)
def test_operands_of_another_type_or_field_are_refused(op, make_left, right):
    # zero and one on the left: their shortcuts used to return the operand as it was
    with pytest.raises(FieldMismatch):
        op(make_left(QQ), right)


@st.composite
def over_one(draw, kind, field):
    """A polynomial of ``kind`` over 1: zero, a constant or X^i times one."""
    return kind.from_polynomial(draw(polynomials(field)))


@st.composite
def over_q(draw, kind, field):
    """num/q of ``kind`` with q(0) = 1 and deg q >= 1 before reduction."""
    q = [1] + draw(st.lists(st.integers(-9, 9), min_size=1, max_size=3))
    return kind(draw(polynomials(field)), Polynomial(field, q))


@settings(max_examples=200)
@given(st.data(), st.sampled_from(FIELDS), st.sampled_from(KINDS), st.booleans())
def test_constant_denominator_shortcuts_equal_the_checked_constructor(data, field, kind, cancel):
    """a/q + b/1, b/1 + a/q and (a/1)(b/1) skip the checked constructor; each
    equals it, sums that cancel to 0 included (b = -a over 1)."""
    b, c = data.draw(over_one(kind, field)), data.draw(over_one(kind, field))
    a = -b if cancel else data.draw(over_q(kind, field) | over_one(kind, field))

    def forbidden(*args):
        raise AssertionError("the checked constructor ran")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Quotient, "__init__", forbidden)
        sums, product = (a + b, b + a, a - b), b * c
    checked = [kind(x.num * y.den + y.num * x.den, x.den * y.den) for x, y in ((a, b), (b, a))]
    assert sums == (*checked, kind(a.num - b.num * a.den, a.den))
    assert product == kind(b.num * c.num, b.den * c.den)
    assert all(normalized(q) for q in sums + (product,))
    if cancel:
        assert sums[:2] == (kind.zero(field),) * 2


@pytest.mark.parametrize("field", [QQ, PrimeField(101)], ids=repr)
def test_roundtrip_text_reaches_the_quotient_shortcuts(field, monkeypatch):
    """A closed form as the convert workload writes it, (sum c_i X^i)/(sum d_j
    X^j), runs the checked constructor, and so gcd, for its final division
    only, and each X^i is a power by shift: no square-and-multiply."""
    text = "(6 - 2*X - 1*X^2 + 3/4*X^5)/(1 - 4*X + 19/4*X^2 - 3/2*X^3 + X^7)"
    expected = RationalStream(
        Polynomial(field, [24, -8, -4, 0, 0, 3]),
        Polynomial(field, [4, -16, 19, -6, 0, 0, 0, 4]),
    )
    gcds, inits, in_power = [], [], []
    gcd, init, power, product = Polynomial.gcd, Quotient.__init__, Polynomial.__pow__, Polynomial.__mul__

    def counted_gcd(self, other):
        gcds.append(None)
        return gcd(self, other)

    def counted_init(self, num, den):
        inits.append(None)
        init(self, num, den)

    def marked_power(self, k):
        in_power.append(None)
        try:
            return power(self, k)
        finally:
            in_power.pop()

    def guarded_product(self, other):
        assert not in_power, "a power multiplied polynomials"
        return product(self, other)

    monkeypatch.setattr(Polynomial, "gcd", counted_gcd)
    monkeypatch.setattr(Quotient, "__init__", counted_init)
    monkeypatch.setattr(Polynomial, "__pow__", marked_power)
    monkeypatch.setattr(Polynomial, "__mul__", guarded_product)
    assert evaluate_text(text, field) == expected
    assert (len(gcds), len(inits)) == (1, 1)
