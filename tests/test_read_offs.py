"""Answers read off canonical forms and explicit bases, against the general
algebra they replace (the references in ``tests/util.py``).

``first_difference`` steps the two closed forms' recurrences instead of
taking the valuation of their difference, ``standardize_initial_state``
writes the basis completion of the initial state and its inverse down
instead of eliminating, and ``minimize`` multiplies the projection only into
the dynamics' pivot columns.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcalc import (
    CanonicalCircuit,
    LinearSystem,
    Matrix,
    PointedLinearSystem,
    Polynomial,
    PrimeField,
    QQ,
    RationalStream,
    UnsupportedInitialVector,
    WeightedAutomaton,
    equivalent,
    first_difference,
    minimize,
    realize,
    standardize_initial_state,
)
from streamcalc import matrix, poly, ratstream
from streamcalc.linear_system import at_least_one_state
from util import (
    eliminated_standardization,
    full_product_minimization,
    subtracted_first_difference,
)

FIELDS = (QQ, PrimeField(2), PrimeField(7), PrimeField(101))
KINDS = ("stream", "system", "canonical circuit", "netlist", "automaton state")


def face(kind, pointed):
    """The representation of ``kind`` of a single-output pointed system."""
    if kind == "system":
        return pointed
    if kind == "automaton state":
        if all(v == pointed.field.zero() for v in pointed.initial):
            pointed = at_least_one_state(realize(pointed.behaviour()))
        automaton = WeightedAutomaton.from_linear_system(standardize_initial_state(pointed))
        return automaton.to_linear_system(0)
    circuit = CanonicalCircuit.from_linear_system(pointed)
    return circuit if kind == "canonical circuit" else circuit.to_netlist()


def represent(kind, stream):
    """The representation of ``kind`` of a stream, through its minimal system."""
    if kind == "stream":
        return stream
    return face(kind, at_least_one_state(realize([stream])))


@st.composite
def streams(draw, field):
    num = draw(st.lists(st.integers(-9, 9), max_size=5))
    den = [1] + draw(st.lists(st.integers(-9, 9), max_size=4))
    return RationalStream(Polynomial(field, num), Polynomial(field, den))


@st.composite
def pointed_systems(draw, field):
    n = draw(st.integers(1, 5))
    entries = st.lists(st.sampled_from((0, 0, 1, -1, 2, 3)), min_size=n, max_size=n)
    dynamics = Matrix(field, draw(st.lists(entries, min_size=n, max_size=n)))
    output = Matrix(field, [draw(entries)])
    return PointedLinearSystem(LinearSystem(dynamics, output), draw(entries))


@st.composite
def equal_pairs(draw):
    field = draw(st.sampled_from(FIELDS))
    s = draw(streams(field))
    return represent(draw(st.sampled_from(KINDS)), s), represent(draw(st.sampled_from(KINDS)), s)


@st.composite
def planted_pairs(draw):
    """Representations of s and s + c X^k for a nonzero c: they first differ at k."""
    field = draw(st.sampled_from(FIELDS))
    s = draw(streams(field))
    k = draw(st.integers(0, 12))
    c = field.coerce(draw(st.integers(1, 6)))
    c = c if c != field.zero() else field.one()
    planted = RationalStream(Polynomial.monomial(field, c, k), Polynomial.one(field))
    first, second = draw(st.sampled_from(KINDS)), draw(st.sampled_from(KINDS))
    return represent(first, s), represent(second, s + planted), k


@st.composite
def system_pairs(draw):
    """Two random pointed systems, of independent dimensions, as any kinds but
    a stream."""
    field = draw(st.sampled_from(FIELDS))
    kinds = st.sampled_from(KINDS[1:])
    first, second = draw(pointed_systems(field)), draw(pointed_systems(field))
    return face(draw(kinds), first), face(draw(kinds), second)


@settings(max_examples=200)
@given(equal_pairs())
def test_equal_pairs_have_no_difference(pair):
    first, second = pair
    assert first_difference(first, second) is None
    assert subtracted_first_difference(first, second) is None
    assert equivalent(first, second)


@settings(max_examples=200)
@given(planted_pairs())
def test_planted_difference_is_found_where_it_was_planted(case):
    first, second, k = case
    assert first_difference(first, second) == k == subtracted_first_difference(first, second)
    assert first_difference(second, first) == k
    assert not equivalent(first, second)


@settings(max_examples=200)
@given(system_pairs())
def test_first_difference_of_systems_of_any_dimensions(pair):
    first, second = pair
    expected = subtracted_first_difference(first, second)
    assert first_difference(first, second) == expected
    assert first_difference(second, first) == expected
    assert equivalent(first, second) == (expected is None)


@pytest.mark.parametrize("field", FIELDS, ids=lambda field: field.spec())
def test_zero_streams(field):
    zero = RationalStream.zero(field)
    faces = [represent(kind, zero) for kind in KINDS]
    faces.append(PointedLinearSystem(
        LinearSystem(Matrix(field, [[1, 1], [0, 1]]), Matrix(field, [[1, 0]])), (0, 0)))
    for first in faces:
        for second in faces:
            assert first_difference(first, second) is None
            assert equivalent(first, second)
    x_cubed = RationalStream(Polynomial.monomial(field, field.one(), 3), Polynomial.one(field))
    for kind in KINDS:
        assert first_difference(represent(kind, x_cubed), zero) == 3
        assert first_difference(zero, represent(kind, x_cubed)) == 3


def _fails(*args, **kwargs):
    raise AssertionError("the read-off path ran general algebra")


def test_first_difference_runs_no_quotient_arithmetic(monkeypatch):
    pointed = PointedLinearSystem(
        LinearSystem(Matrix(QQ, [[0, -1], [1, 2]]), Matrix(QQ, [[1, 2]])), (1, 0)
    )
    naturals = RationalStream(Polynomial(QQ, [1]), Polynomial(QQ, [1, -2, 1]))
    geometric = RationalStream(Polynomial(QQ, [1]), Polynomial(QQ, [1, -1]))
    for name in ("__add__", "__sub__"):
        monkeypatch.setattr(poly.Quotient, name, _fails)
    monkeypatch.setattr(poly.Polynomial, "gcd", _fails)
    monkeypatch.setattr(ratstream, "valuation", _fails)
    assert first_difference(pointed, naturals) is None
    assert first_difference(pointed, geometric) == 1
    assert equivalent(pointed, naturals) and not equivalent(geometric, pointed)


def test_minimize_multiplies_no_matrices(monkeypatch):
    pointed = PointedLinearSystem(
        LinearSystem(Matrix(QQ, [[1, 1], [0, 0]]), Matrix(QQ, [[1, 1]])), (2, 3)
    )
    expected = full_product_minimization(pointed)
    monkeypatch.setattr(matrix.Matrix, "__mul__", _fails)
    assert minimize(pointed) == expected and expected.dim == 1


@settings(max_examples=300)
@given(st.sampled_from(FIELDS).flatmap(pointed_systems))
def test_standardize_initial_state_equals_the_eliminated_basis(pointed):
    if all(v == pointed.field.zero() for v in pointed.initial):
        with pytest.raises(UnsupportedInitialVector):
            standardize_initial_state(pointed)
        return
    assert standardize_initial_state(pointed) == eliminated_standardization(pointed)


@settings(max_examples=300)
@given(st.sampled_from(FIELDS).flatmap(pointed_systems))
def test_minimize_equals_the_full_product(pointed):
    assert minimize(pointed) == full_product_minimization(pointed)
