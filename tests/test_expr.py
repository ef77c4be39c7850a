from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from streamcalc import NotInvertibleAtZero, ParseError, QQ, RationalStream
from streamcalc.expr import (
    _MAX_NESTING,
    Add,
    Div,
    Mul,
    Neg,
    Pow,
    Scalar,
    Sub,
    VarX,
    evaluate,
    evaluate_text,
    parse,
    to_text,
)
from streamcalc.fields import PrimeField

GF7 = PrimeField(7)


def num(v):
    return Scalar(Fraction(v))


def test_parse_power_of_difference():
    assert parse("1/(1-X)^2") == Div(num(1), Pow(Sub(num(1), VarX()), 2))


def test_parse_scaled_geometric():
    assert parse("1/(1-3*X)") == Div(num(1), Sub(num(1), Mul(num(3), VarX())))


def test_parse_division_by_x():
    ast = parse("1/X")
    assert ast == Div(num(1), VarX())
    with pytest.raises(NotInvertibleAtZero):
        evaluate(ast)


def test_precedence_layers():
    assert parse("1+2*X") == Add(num(1), Mul(num(2), VarX()))
    assert parse("-X^2") == Neg(Pow(VarX(), 2))
    assert parse("1-2-3") == Sub(Sub(num(1), num(2)), num(3))
    assert parse("2*X/X") == Div(Mul(num(2), VarX()), VarX())


def test_scalar_literal_rule():
    # '/' directly between two integer literals lexes as one scalar
    assert parse("3/4") == Scalar(Fraction(3, 4))
    assert parse("3 / 4") == Div(num(3), num(4))
    assert parse("3/ 4") == Div(num(3), num(4))
    assert parse("1/2/3") == Div(Scalar(Fraction(1, 2)), num(3))
    assert parse("X/4") == Div(VarX(), num(4))


def test_negative_literal_folds():
    assert parse("-3") == num(-3)
    assert parse("-3*X") == Mul(num(-3), VarX())
    assert parse("-X") == Neg(VarX())


def test_minus_folds_only_into_the_literal_right_after_it():
    assert parse("- 3/4") == Scalar(Fraction(-3, 4))
    assert parse("-(3)") == Neg(num(3))
    assert parse("--3") == Neg(num(-3))
    assert parse("-3^2") == Neg(Pow(num(3), 2))
    assert evaluate_text("-(3)") == evaluate_text("--3 - 6") == evaluate_text("-3")


def test_negated_scalar_prints_in_parentheses():
    assert to_text(Neg(num(3))) == "-(3)"
    assert to_text(Neg(num(-3))) == "-(-3)"
    assert to_text(Neg(Neg(num(3)))) == "--(3)"
    assert to_text(Neg(Pow(num(3), 2))) == "-3^2"
    for ast in (Neg(num(3)), Neg(num(-3)), Neg(Neg(num(3)))):
        assert parse(to_text(ast)) == ast


def test_power_exponent_must_be_literal():
    with pytest.raises(ParseError):
        parse("X^-1")
    with pytest.raises(ParseError):
        parse("X^(2)")


def test_syntax_errors_carry_position_and_expectations():
    with pytest.raises(ParseError) as info:
        parse("1/((1-X)")
    assert info.value.position == 8
    assert "RPAREN" in info.value.expected

    with pytest.raises(ParseError) as info:
        parse("1 + * 2")
    assert info.value.position == 4
    assert {"INT", "RAT", "X", "LPAREN"} <= info.value.expected

    with pytest.raises(ParseError) as info:
        parse("1 ? 2")
    assert info.value.position == 2


@pytest.mark.parametrize("text, field", [("1 + 3/0", QQ), ("1 + 3/7", GF7), ("1 + 3/14", GF7)])
def test_literal_denominator_zero_in_the_field_is_a_parse_error(text, field):
    with pytest.raises(ParseError) as info:
        parse(text, field)
    assert info.value.position == 4


def test_evaluate_examples():
    assert evaluate_text("1/(1-X)^2").expand(4) == [1, 2, 3, 4]
    assert evaluate_text("(1-X)*(1/(1-X))") == RationalStream.one(QQ)
    assert not evaluate_text("X*(2/(1-X)) - (2/(1-X))*X")


def test_evaluate_in_prime_field():
    s = evaluate_text("1/(1-3*X)", GF7)
    assert s.expand(4) == [GF7.coerce(v) for v in (1, 3, 2, 6)]
    assert evaluate_text("3/4", GF7).initial_value() == GF7.coerce(3) / GF7.coerce(4)


def test_printer_golden():
    assert to_text(parse("1/(1-X)^2")) == "1/(1 - X)^2"
    assert to_text(parse("1/(1-3*X)")) == "1/(1 - 3*X)"
    assert to_text(Div(num(1), num(2))) == "1 / 2"
    assert to_text(Pow(num(-2), 2)) == "(-2)^2"


@pytest.mark.parametrize("node", [3, None, "X", Fraction(1, 2), Add(VarX(), 3), (VarX(), 1), Neg((VarX(),))])
def test_a_non_node_is_a_type_error(node):
    with pytest.raises(TypeError, match="not an expression node"):
        to_text(node)
    with pytest.raises(TypeError, match="not an expression node"):
        evaluate(node)


@pytest.mark.parametrize("text, position", [("1 + ٣", 4), ("3/٣", 2), ("1/" + "1" * 5000, 2)])
def test_parse_error_offsets(text, position):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.position == position


@pytest.mark.parametrize("text", ["(" * 100 + "X" + ")" * 100, "-" * 100 + "X", "(-" * 50 + "X" + ")" * 50])
def test_nesting_at_the_limit_parses(text):
    assert _MAX_NESTING == 100
    assert evaluate_text(text) == evaluate_text("X")


@pytest.mark.parametrize("text", ["(" * 101 + "X" + ")" * 101, "-" * 101 + "X"])
def test_nesting_past_the_limit_is_a_parse_error(text):
    with pytest.raises(ParseError, match="nests deeper") as info:
        parse(text)
    assert info.value.position == 100


scalar_values = st.one_of(
    st.integers(-9, 9).map(Fraction),
    st.fractions(min_value=-9, max_value=9, max_denominator=9),
)
atoms = st.one_of(scalar_values.map(Scalar), st.just(VarX()))


def _extend(children):
    return st.one_of(
        st.tuples(children, children).map(lambda p: Add(*p)),
        st.tuples(children, children).map(lambda p: Sub(*p)),
        st.tuples(children, children).map(lambda p: Mul(*p)),
        st.tuples(children, children).map(lambda p: Div(*p)),
        st.tuples(children, st.integers(0, 4)).map(lambda p: Pow(*p)),
        children.map(Neg),
    )


expressions = st.recursive(atoms, _extend, max_leaves=25)


@given(expressions)
def test_print_parse_round_trip(ast):
    assert parse(to_text(ast)) == ast


@given(expressions)
def test_reprint_is_stable(ast):
    text = to_text(ast)
    assert to_text(parse(text)) == text
