import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcalc import CountTooLarge, Polynomial, PrimeField, QQ, StreamPrefix, ZeroInitialValue, is_prime
from streamcalc.expr import evaluate_text
from streamcalc.ratstream import RationalStream
from util import DENOMINATORS, boxed_cauchy, boxed_prefix_inverse, random_stream


def test_head_of_x():
    x = StreamPrefix.from_coefficients(QQ, [0, 1])
    assert x.head() == 0


def test_tail_of_naturals():
    s = StreamPrefix.from_rational(evaluate_text("1/(1-X)^2"))
    assert s.tail().take(4) == [2, 3, 4, 5]


def test_tail_of_constant_is_zero():
    c = StreamPrefix.constant(QQ, 7)
    assert c.tail().take(3) == [0, 0, 0]


def test_convolution_by_hand():
    a = StreamPrefix.from_coefficients(QQ, [1, 2])
    b = StreamPrefix.from_coefficients(QQ, [3, 1])
    assert (a * b).take(4) == [3, 7, 2, 0]


def test_convolution_of_ones_gives_naturals():
    ones = StreamPrefix.from_rational(evaluate_text("1/(1-X)"))
    assert (ones * ones).take(5) == [1, 2, 3, 4, 5]


def test_convolution_identity():
    a = StreamPrefix.from_coefficients(QQ, [5, -1, 2])
    one = StreamPrefix.constant(QQ, 1)
    assert (a * one).take(6) == a.take(6)


def test_inverse_of_one_minus_x():
    s = StreamPrefix.from_coefficients(QQ, [1, -1])
    assert s.inverse().take(5) == [1, 1, 1, 1, 1]


def test_inverse_of_constant():
    assert StreamPrefix.constant(QQ, 2).inverse().take(3) == [
        Fraction(1, 2),
        0,
        0,
    ]


def test_inverse_needs_nonzero_head():
    with pytest.raises(ZeroInitialValue):
        StreamPrefix.from_coefficients(QQ, [0, 1]).inverse()


def test_bridge_matches_expansion():
    for text, n in (("1/(1-3*X)", 5), ("1/(1-X)^2", 5), ("X", 4)):
        s = evaluate_text(text)
        assert StreamPrefix.from_rational(s).take(n) == s.expand(n)


def test_memoized_purity():
    calls = []

    def producer(i):
        calls.append(i)
        return QQ.coerce(i)

    s = StreamPrefix(QQ, producer)
    assert s.at(3) == 3
    assert s.at(3) == 3
    assert calls == [0, 1, 2, 3]


def test_negative_index_and_count_are_refused():
    s = StreamPrefix.from_rational(evaluate_text("1/(1-2*X)"))
    assert s.take(5) == [1, 2, 4, 8, 16]
    with pytest.raises(ValueError, match="nonnegative"):
        s.at(-1)  # once the last cached coefficient, 16
    with pytest.raises(ValueError, match="nonnegative"):
        s.take(-1)


def test_cons_decomposition():
    s = StreamPrefix.from_rational(evaluate_text("(2-X)/(1-X)^2"))
    rebuilt = s.tail().prepend(s.head())
    assert rebuilt.take(8) == s.take(8)


def test_convolution_agrees_with_symbolic_product():
    rng = random.Random(11)
    for _ in range(20):
        s, t = random_stream(rng), random_stream(rng)
        lhs = StreamPrefix.from_rational(s) * StreamPrefix.from_rational(t)
        assert lhs.take(32) == (s * t).expand(32)


def test_inverse_agrees_with_symbolic_division():
    rng = random.Random(12)
    checked = 0
    while checked < 15:
        s = random_stream(rng)
        if s.initial_value() == 0:
            continue
        lhs = StreamPrefix.from_rational(s).inverse()
        assert lhs.take(16) == (s.inverse()).expand(16)
        checked += 1


def test_long_bridge_matches_expansion():
    s = evaluate_text("(1+2*X)/(1-X-3*X^2)")
    assert StreamPrefix.from_rational(s).take(300) == s.expand(300)


def test_huge_count_is_refused_at_once():
    """As ``RationalStream.expand``: no coefficient is made for a count above
    ``sys.maxsize``, which no list reaches."""

    def producer(i):
        raise AssertionError("a coefficient was made")

    with pytest.raises(CountTooLarge):
        StreamPrefix(QQ, producer).take(sys.maxsize + 1)
    with pytest.raises(CountTooLarge):
        StreamPrefix.constant(QQ, 1).inverse().take(10**30)


def test_huge_index_is_refused_at_once():
    """``at`` refuses an index above ``sys.maxsize`` before it produces a
    coefficient; this producer would fail after 1000 of them."""
    calls = []

    def producer(i):
        calls.append(i)
        if len(calls) > 1000:
            raise AssertionError("still producing coefficients")
        return QQ.zero()

    s = StreamPrefix(QQ, producer)
    with pytest.raises(CountTooLarge, match="stream index is above"):
        s.at(sys.maxsize + 1)
    assert calls == []


# --- the integer form against the boxed loops ---------------------------------

FIELDS = (QQ, PrimeField(2), PrimeField(101), PrimeField(2**61 - 1))
PRIMES = [p for p in range(3, 400) if is_prime(p)]
TERMS = 12


@st.composite
def coefficients(draw, field, max_size):
    """Up to ``max_size`` scalars, zeros among them.  Over Q each list takes
    one kind of ``DENOMINATORS`` (40 digits among them), or distinct primes."""
    size = draw(st.integers(0, max_size))
    numerators = st.integers(-9, 9) | st.integers(-10**30, 10**30)
    if field is not QQ:
        return [field.coerce(n) for n in draw(st.lists(numerators, min_size=size, max_size=size))]
    kind = draw(st.sampled_from(sorted(DENOMINATORS) + ["primes"]))
    if kind == "primes":
        denominators = draw(st.permutations(PRIMES))[:size]
    else:
        denominators = draw(st.lists(DENOMINATORS[kind], min_size=size, max_size=size))
    return [Fraction(draw(numerators), d) for d in denominators]


@st.composite
def operands(draw, field):
    """A maker of one prefix, made afresh by each call so that the boxed and
    the integer side share no cache: finite coefficients (empty, short, a
    zero head) or the terms of a closed form by ``from_rational``."""
    numerator = draw(coefficients(field, 6))
    if draw(st.booleans()):
        return lambda: StreamPrefix.from_coefficients(field, numerator)
    taps = draw(coefficients(field, 3))
    s = RationalStream(Polynomial(field, numerator), Polynomial(field, [field.one()] + taps))
    return lambda: StreamPrefix.from_rational(s)


def read_out_of_order(prefix, expected):
    """Coefficient 7 first, then the first 3, then all: each as expected and
    an element of the field."""
    assert prefix.at(7) == expected[7]
    assert prefix.take(3) == expected[:3]
    got = prefix.take(len(expected))
    assert got == expected
    assert all(type(x) is type(prefix.field.one()) for x in got)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_product_matches_boxed_cauchy(field, data):
    a, b = data.draw(operands(field)), data.draw(operands(field))
    read_out_of_order(a() * b(), boxed_cauchy(a(), b()).take(TERMS))
    x = a()
    read_out_of_order(x * x, boxed_cauchy(a(), a()).take(TERMS))
    # a nested producer rescales x's integer form between two reads of it
    x, y = a(), b()
    x.take(data.draw(st.integers(0, 4)))
    expected = boxed_cauchy(a(), boxed_cauchy(a(), b()).tail()).take(TERMS)
    read_out_of_order(x * (x * y).tail(), expected)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_inverse_matches_boxed_inverse(field, data):
    a, b = data.draw(operands(field)), data.draw(operands(field))
    if not a().head():
        with pytest.raises(ZeroInitialValue):
            a().inverse()
        with pytest.raises(ZeroInitialValue):
            boxed_prefix_inverse(a())
        return
    read_out_of_order(a().inverse(), boxed_prefix_inverse(a()).take(TERMS))
    x, y = a(), b()
    expected = boxed_cauchy(b(), boxed_prefix_inverse(a())).take(TERMS)
    read_out_of_order(y * x.inverse(), expected)
    one = [field.one()] + [field.zero()] * (TERMS - 1)
    assert (x * x.inverse()).take(TERMS) == one
