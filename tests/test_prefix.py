import random
from fractions import Fraction

import pytest

from streamcalc import QQ, StreamPrefix, ZeroInitialValue
from streamcalc.expr import evaluate_text
from util import random_stream


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
        return QQ.from_int(i)

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
