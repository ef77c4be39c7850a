import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from streamcalc import NotInvertibleAtZero, Polynomial, PrimeField, QQ, RationalStream
from streamcalc.expr import evaluate_text
from streamcalc.ratstream import valuation
from util import poly, random_stream, stream

GF7 = PrimeField(7)


@st.composite
def rational_streams(draw, max_deg=4, bound=9):
    num = draw(st.lists(st.integers(-bound, bound), min_size=1, max_size=max_deg + 1))
    den = [1] + draw(st.lists(st.integers(-bound, bound), min_size=0, max_size=max_deg))
    return stream(num, den)


def test_denominator_normalized_to_one_at_zero():
    s = stream([3], [2, 4])
    assert s.den.coefficient(0) == 1
    assert s.num == poly(QQ, Fraction(3, 2))


def test_gcd_reduction_on_construction():
    # X/X is rejected: the *given* denominator must be invertible at 0
    with pytest.raises(NotInvertibleAtZero):
        stream([0, 1], [0, 1])
    # (1 - X^2)/(1 - X) reduces to 1 + X
    assert stream([1, 0, -1], [1, -1]) == stream([1, 1])
    # (X^2 - 1)/(X - 1) reduces too: den(0) = -1 is invertible
    assert stream([-1, 0, 1], [-1, 1]) == stream([1, 1])


def test_zero_is_canonical():
    s = stream([0], [1, 5])
    assert not s and s.den == Polynomial.one(QQ)


def test_same_denominator_product():
    g = evaluate_text("1/(1-X)")
    assert g * g == evaluate_text("1/(1-X)^2")


def test_geometric_minus_one():
    # 1/(1-X) - 1 = X/(1-X)
    g = evaluate_text("1/(1-X)")
    assert g - RationalStream.one(QQ) == evaluate_text("X/(1-X)")


def test_division_by_x_fails():
    with pytest.raises(NotInvertibleAtZero):
        RationalStream.one(QQ) / RationalStream.x(QQ)


def test_derivative_of_geometric():
    # (1/(1-cX))' = c/(1-cX)
    for c in (1, 3, -2):
        s = stream([1], [1, -c])
        assert s.derivative() == stream([c], [1, -c])


def test_derivative_golden_examples():
    s = evaluate_text("1/(1-X)^2")
    assert s.derivative() == evaluate_text("(2-X)/(1-X)^2")
    assert s.iterated_derivative(2) == evaluate_text("(3-2*X)/(1-X)^2")


def test_derivative_of_constant_is_zero():
    assert not stream([5]).derivative()


def test_negative_orders_indices_and_counts_are_refused():
    s = stream([1], [1, -1])
    assert s.iterated_derivative(0) == s and s.coefficient(0) == 1 and s.expand(0) == []
    for call in (s.iterated_derivative, s.coefficient, s.expand):
        with pytest.raises(ValueError, match="nonnegative"):
            call(-1)


def test_initial_values():
    assert evaluate_text("1/(1-X)^2").initial_value() == 1
    assert evaluate_text("(2-X)/(1-X)^2").initial_value() == 2
    assert RationalStream.zero(QQ).initial_value() == 0


def test_expand_golden_examples():
    assert evaluate_text("1/(1-3*X)").expand(5) == [1, 3, 9, 27, 81]
    assert evaluate_text("1/(1-X)^2").expand(5) == [1, 2, 3, 4, 5]
    assert RationalStream.x(QQ).expand(4) == [0, 1, 0, 0]


def test_equality_via_common_factors():
    a = stream([0, 2, -1], [1, -2, 1])  # (2X - X^2)/(1-X)^2
    b = evaluate_text("X*(2-X)/(1-X)^2")
    assert a == b
    assert evaluate_text("1/(1-X)") != evaluate_text("1/(1-2*X)")
    # (1-2X+X^2)/((1-X)^3) reduces to 1/(1-X)
    c = evaluate_text("(1-2*X+X^2)/((1-X)*(1-X)^2)")
    assert c == evaluate_text("1/(1-X)")


def test_canonical_text():
    assert str(evaluate_text("1/(1-X)^2")) == "(1)/(1 - 2*X + X^2)"
    assert str(RationalStream.zero(QQ)) == "0"
    assert str(stream([5])) == "5"
    assert str(stream([1, 2])) == "1 + 2*X"
    assert str(evaluate_text("(2-X)/(1-X)^2")) == "(2 - X)/(1 - 2*X + X^2)"


def test_canonical_text_reparses():
    rng = random.Random(3)
    for _ in range(25):
        s = random_stream(rng, allow_zero=True)
        assert evaluate_text(str(s)) == s


def test_valuation():
    assert valuation(RationalStream.zero(QQ)) == -1
    assert valuation(evaluate_text("X^3/(1-X)")) == 3
    assert valuation(evaluate_text("1/(1-X)")) == 0


def test_gf_streams():
    s = stream([1], [1, -1], field=GF7)
    assert s.expand(8) == [GF7.one()] * 8
    t = stream([1], [1, -3], field=GF7)
    assert t.expand(4) == [GF7.coerce(v) for v in (1, 3, 2, 6)]


def test_power():
    g = evaluate_text("1/(1-X)")
    assert g**2 == evaluate_text("1/(1-X)^2")
    assert g**0 == RationalStream.one(QQ)


@pytest.mark.parametrize("field", [QQ, GF7])
def test_power_of_a_polynomial_stream_raises_only_its_numerator(field, monkeypatch):
    # a constant denominator is exactly 1, so it is its own power
    raised = []
    power = Polynomial.__pow__

    def counted(p, k):
        raised.append(p)
        return power(p, k)

    monkeypatch.setattr(Polynomial, "__pow__", counted)
    s = evaluate_text("(1 + 2*X)^5", field)
    assert raised == [poly(field, 1, 2)]
    assert s.den == poly(field, 1)
    assert s.num == poly(field, 1, 10, 40, 80, 80, 32)


@given(rational_streams())
def test_fundamental_theorem(s):
    head = RationalStream.constant(QQ, s.initial_value())
    assert s == head + RationalStream.x(QQ) * s.derivative()


@given(rational_streams())
def test_x_commutation(s):
    x = RationalStream.x(QQ)
    assert x * s == s * x


@given(rational_streams())
def test_inverse_law(s):
    if s.initial_value() == 0:
        return
    assert s * (RationalStream.one(QQ) / s) == RationalStream.one(QQ)


@given(rational_streams(), st.integers(min_value=1, max_value=8))
def test_expand_matches_iterated_derivatives(s, n):
    expansion = s.expand(n)
    for i in range(n):
        assert expansion[i] == s.iterated_derivative(i).initial_value()


@given(rational_streams())
def test_derivative_degree_bound_and_fixed_denominator(s):
    d = s.derivative()
    assert d.num.degree <= max(s.num.degree, s.den.degree) - 1
    if d:
        assert d.den == s.den  # differentiation never grows the denominator


GF_FIELDS = (QQ, PrimeField(2), GF7, PrimeField(101), PrimeField(2**61 - 1))


@given(
    st.sampled_from(GF_FIELDS),
    st.lists(st.integers(-9, 9), min_size=1, max_size=4),
    st.lists(st.integers(-9, 9), min_size=0, max_size=3),
    st.integers(min_value=0, max_value=12),
)
def test_power_matches_repeated_product(field, num, den, k):
    s = RationalStream(Polynomial(field, num), Polynomial(field, [1] + den))
    expected = RationalStream.one(field)
    for _ in range(k):
        expected = expected * s
    assert s**k == expected


def test_large_power_is_reduced_closed_form():
    s = evaluate_text("1/(1-X)^3000")
    assert s.num == poly(QQ, 1)
    assert s.den.degree == 3000
    assert s.expand(3) == [1, 3000, 3000 * 3001 // 2]


TRUSTED_FIELDS = (QQ, PrimeField(2), PrimeField(101))


@given(st.sampled_from(TRUSTED_FIELDS), st.lists(st.integers(-9, 9), max_size=12))
def test_from_sequence_is_already_reduced(field, terms):
    s = RationalStream.from_sequence(field, terms)
    assert s == RationalStream(s.num, s.den)
    assert s.expand(len(terms)) == [field.coerce(t) for t in terms]


@given(
    st.sampled_from(TRUSTED_FIELDS),
    st.lists(st.integers(-9, 9), max_size=6),
    st.lists(st.integers(-9, 9), max_size=6),
)
def test_derivative_is_already_reduced(field, num, den):
    s = RationalStream(Polynomial(field, num), Polynomial(field, [1] + den))
    for _ in range(3):
        s = s.derivative()
        assert s == RationalStream(s.num, s.den)


@given(
    st.sampled_from(TRUSTED_FIELDS),
    st.lists(st.integers(-9, 9), max_size=6),
    st.lists(st.integers(-9, 9), max_size=6),
    st.integers(-9, 9),
)
def test_negation_and_scaling_are_already_reduced(field, num, den, c):
    s = RationalStream(Polynomial(field, num), Polynomial(field, [1] + den))
    scaled = s * RationalStream.constant(field, c)
    for t in (-s, scaled):
        assert t == RationalStream(t.num, t.den)
    assert -s == RationalStream(-s.num, s.den)
    assert scaled == RationalStream(s.num.scale(c), s.den)
    assert s.initial_value() == s.expand(1)[0]
