import random
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from streamcalc import (
    CountTooLarge,
    LinearSystem,
    Matrix,
    PointedLinearSystem,
    Polynomial,
    QQ,
    RationalStream,
    ShapeMismatch,
    StreamPrefix,
    UnsupportedInitialVector,
    change_basis,
    format_system,
    minimize,
    observability_matrix,
    parse_system,
    rank,
    realize,
    standardize_initial_state,
    states_equivalent,
)
from streamcalc.expr import evaluate_text
from streamcalc.fields import PrimeField
from util import boxed_dot, boxed_orbit, random_stream, random_system

GF101 = PrimeField(101)

SHIFT_SUM = LinearSystem(Matrix(QQ, [[1, 1], [0, 0]]), Matrix(QQ, [[1, 1]]))
SHIFT_WEIGHTED = LinearSystem(Matrix(QQ, [[1, 1], [0, 0]]), Matrix(QQ, [[1, 2]]))
NATURALS = LinearSystem(Matrix(QQ, [[0, -1], [1, 2]]), Matrix(QQ, [[1, 2]]))


def test_behaviour_at_basis_points():
    geometric = evaluate_text("1/(1-X)")
    assert SHIFT_SUM.behaviour((1, 0)) == (geometric,)
    assert SHIFT_SUM.behaviour((0, 1)) == (geometric,)
    assert SHIFT_WEIGHTED.behaviour((0, 1)) == (evaluate_text("(2-X)/(1-X)"),)


def test_behaviour_of_zero_state():
    assert SHIFT_SUM.behaviour((0, 0)) == (RationalStream.zero(QQ),)


def test_step_outputs_match_closed_form():
    assert SHIFT_SUM.step_outputs((1, 0), 4) == [(1,), (1,), (1,), (1,)]
    assert NATURALS.step_outputs((1, 0), 5) == [(1,), (2,), (3,), (4,), (5,)]
    assert SHIFT_SUM.step_outputs((1, 0), 0) == []
    # the count is named as the caller passes it, not as the orbit it runs
    with pytest.raises(ValueError, match="^number of steps must be nonnegative$"):
        SHIFT_SUM.step_outputs((1, 0), -1)
    with pytest.raises(ValueError, match="nonnegative"):
        PointedLinearSystem(NATURALS, (1, 0)).step_outputs(-3)
    with pytest.raises(CountTooLarge, match="^number of steps is above"):
        PointedLinearSystem(NATURALS, (1, 0)).step_outputs(sys.maxsize + 1)


def test_behaviour_coefficients_are_iterated_dynamics():
    rng = random.Random(21)
    for _ in range(8):
        pointed = random_system(rng, outputs=rng.randint(1, 2))
        stepped = pointed.step_outputs(12)
        streams = pointed.behaviour()
        expanded = [s.expand(12) for s in streams]
        for t in range(12):
            assert tuple(col[t] for col in expanded) == stepped[t]
        # past 2n both sides come from the closed forms; H F^t v is independent
        system = pointed.system
        assert stepped == [
            tuple(boxed_dot(pointed.field, row, x) for row in system.output.entries)
            for x in boxed_orbit(system.dynamics, pointed.initial, 12)
        ]


def test_realize_single_stream_golden():
    pointed = realize([evaluate_text("1/(1-X)^2")])
    assert pointed.dim == 2
    assert pointed.system.output == Matrix(QQ, [[1, 2]])
    assert pointed.system.dynamics == Matrix(QQ, [[0, -1], [1, 2]])
    assert pointed.initial == (1, 0)


def test_realize_pair_golden():
    pointed = realize([evaluate_text("1/(1-2*X)"), evaluate_text("1/(1-X)^2")])
    assert pointed.dim == 3
    assert pointed.system.output == Matrix(QQ, [[1, 2, 4], [1, 2, 3]])
    assert pointed.system.dynamics == Matrix(QQ, [[0, 0, 2], [1, 0, -5], [0, 1, 4]])
    assert pointed.initial == (1, 0, 0)


@pytest.mark.parametrize("count", (1, 2))
def test_realize_takes_one_gcd_per_further_stream(count, monkeypatch):
    """The minimal polynomial starts from the first stream's annihilator, so
    one stream needs no gcd and no division, and two need one of each."""
    streams = [evaluate_text("1/(1-2*X)"), evaluate_text("1/(1-X)^2")][:count]
    calls = []
    gcd, floordiv = Polynomial.gcd, Polynomial.__floordiv__

    def counted_gcd(self, other):
        calls.append("gcd")
        return gcd(self, other)

    def counted_floordiv(self, other):
        calls.append("//")
        return floordiv(self, other)

    monkeypatch.setattr(Polynomial, "gcd", counted_gcd)
    monkeypatch.setattr(Polynomial, "__floordiv__", counted_floordiv)
    pointed = realize(streams)
    monkeypatch.undo()
    assert sorted(calls) == ["//", "gcd"] * (count - 1)
    assert pointed.behaviour() == tuple(streams)


def test_realize_zero_stream():
    pointed = realize([RationalStream.zero(QQ)])
    assert pointed.dim == 0
    assert pointed.behaviour() == (RationalStream.zero(QQ),)


def test_realize_polynomial_stream():
    s = evaluate_text("1+X")
    pointed = realize([s])
    assert pointed.dim == 2
    assert pointed.behaviour()[0] == s


def test_realize_round_trip_random():
    rng = random.Random(22)
    for _ in range(25):
        s = random_stream(rng)
        assert realize([s]).behaviour()[0] == s
    for _ in range(10):
        pair = (random_stream(rng, max_deg=3), random_stream(rng, max_deg=3))
        assert realize(pair).behaviour() == pair


def test_realize_dimension_bound():
    rng = random.Random(23)
    for _ in range(40):
        s = random_stream(rng)
        dim = realize([s]).dim
        assert dim <= max(s.num.degree + 1, s.den.degree)
        if s.num.degree < s.den.degree:
            assert dim <= max(s.num.degree, s.den.degree)


def test_behaviour_is_homomorphism():
    # head of the behaviour is the output, tail is the behaviour of the successor
    rng = random.Random(24)
    for _ in range(6):
        pointed = random_system(rng)
        system, state = pointed.system, pointed.initial
        stream = system.behaviour(state)[0]
        prefix = StreamPrefix.from_rational(stream)
        assert prefix.head() == system.output.apply(state)[0]
        successor = system.behaviour(system.dynamics.apply(state))[0]
        assert prefix.tail().take(10) == successor.expand(10)


def test_observability_and_state_equivalence():
    assert rank(observability_matrix(SHIFT_SUM)) == 1
    assert states_equivalent(SHIFT_SUM, (1, 0), (0, 1))
    assert not states_equivalent(SHIFT_SUM, (1, 0), (2, 0))
    assert states_equivalent(SHIFT_SUM, (1, 1), (1, 1))


def test_minimize_collapses_unobservable_direction():
    pointed = PointedLinearSystem(SHIFT_SUM, (1, 0))
    reduced = minimize(pointed)
    assert reduced.dim == 1
    assert reduced.behaviour() == pointed.behaviour()


def test_minimize_of_realized_is_identity():
    rng = random.Random(25)
    for _ in range(10):
        pointed = realize([random_stream(rng)])
        assert minimize(pointed).dim == pointed.dim


def test_minimize_zero_dimensional():
    # the 0 x 0 observability matrix has rank 0 = dim: the system is minimal
    for field in (QQ, PrimeField(2), GF101, PrimeField(2**61 - 1)):
        pointed = realize([RationalStream.zero(field)])
        assert pointed.dim == 0 and minimize(pointed) is pointed


def test_minimize_preserves_behaviour_random():
    rng = random.Random(26)
    for _ in range(20):
        pointed = random_system(rng, outputs=rng.randint(1, 2))
        reduced = minimize(pointed)
        assert reduced.dim <= pointed.dim
        assert reduced.behaviour() == pointed.behaviour()


def test_change_basis_preserves_behaviour():
    pointed = PointedLinearSystem(NATURALS, (1, 0))
    swapped = change_basis(pointed, Matrix(QQ, [[0, 1], [1, 0]]))
    assert swapped.behaviour() == pointed.behaviour()
    assert swapped.initial == (0, 1)


def test_standardize_initial_state():
    pointed = PointedLinearSystem(NATURALS, (2, 3))
    standard = standardize_initial_state(pointed)
    assert standard.initial == (1, 0)
    assert standard.behaviour() == pointed.behaviour()
    with pytest.raises(UnsupportedInitialVector):
        standardize_initial_state(PointedLinearSystem(NATURALS, (0, 0)))


def test_system_file_round_trip():
    pointed = PointedLinearSystem(NATURALS, (1, 0))
    text = format_system(pointed)
    assert text == "field q\nn 2\nm 1\nF 0,-1;1,2\nH 1,2\nv0 1,0\n"
    assert parse_system(text) == pointed
    bare = parse_system(format_system(NATURALS))
    assert bare == NATURALS


def test_system_file_round_trip_gf():
    dynamics = Matrix(GF101, [[5, 100], [1, 0]])
    output = Matrix(GF101, [[1, 2]])
    pointed = PointedLinearSystem(LinearSystem(dynamics, output), (1, 0))
    assert parse_system(format_system(pointed)) == pointed


def test_zero_dimensional_file_round_trip():
    pointed = realize([RationalStream.zero(QQ)])
    text = format_system(pointed)
    again = parse_system(text)
    assert again == pointed
    assert format_system(again) == text


def test_realize_over_prime_field():
    rng = random.Random(27)
    for _ in range(10):
        s = random_stream(rng, field=GF101, max_deg=4)
        assert realize([s]).behaviour()[0] == s


def test_shape_validation():
    with pytest.raises(ShapeMismatch):
        LinearSystem(Matrix(QQ, [[1, 0]]), Matrix(QQ, [[1, 0]]))
    with pytest.raises(ShapeMismatch):
        PointedLinearSystem(SHIFT_SUM, (1,))


REALIZE_FIELDS = (QQ, PrimeField(2), PrimeField(3), PrimeField(7), GF101)


@st.composite
def stream_vectors(draw):
    """(field, 1-4 streams): zero, polynomial, general, or all over one shared
    denominator."""
    field = draw(st.sampled_from(REALIZE_FIELDS))
    coeffs = st.lists(st.integers(-9, 9), max_size=6)
    shared = [1] + draw(coeffs) if draw(st.booleans()) else None
    streams = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("zero", "polynomial", "general")))
        num = [] if kind == "zero" else draw(coeffs)
        den = [1] if kind == "polynomial" else shared or [1] + draw(coeffs)
        streams.append(RationalStream(Polynomial(field, num), Polynomial(field, den)))
    return field, tuple(streams)


@given(stream_vectors())
def test_realize_states_are_the_derivative_vectors(case):
    field, streams = case
    pointed = realize(streams)
    system, n = pointed.system, pointed.dim
    basis = Matrix.identity(field, n).entries
    for i in range(n):
        derivatives = tuple(s.iterated_derivative(i) for s in streams)
        assert system.behaviour(basis[i]) == derivatives
    if n:
        following = system.dynamics.apply(basis[n - 1])
        assert system.behaviour(following) == tuple(
            s.iterated_derivative(n) for s in streams
        )
    assert pointed.initial == (basis[0] if n else ())
    assert minimize(pointed).dim == n


@st.composite
def pointed_systems(draw):
    field = draw(st.sampled_from(REALIZE_FIELDS))
    n = draw(st.integers(1, 5))
    square = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    dynamics = Matrix(field, draw(st.lists(square, min_size=n, max_size=n)))
    output = Matrix(field, draw(st.lists(square, min_size=1, max_size=2)))
    initial = draw(st.lists(st.sampled_from((0, 0, 1, -1, 2)), min_size=n, max_size=n))
    return PointedLinearSystem(LinearSystem(dynamics, output), initial)


@given(pointed_systems())
def test_standardize_initial_state_keeps_behaviour(pointed):
    if all(v == 0 for v in pointed.initial):
        with pytest.raises(UnsupportedInitialVector):
            standardize_initial_state(pointed)
        return
    standard = standardize_initial_state(pointed)
    assert standard.initial == Matrix.identity(pointed.field, pointed.dim).entries[0]
    assert standard.behaviour() == pointed.behaviour()


def test_standardize_initial_state_does_not_eliminate(monkeypatch):
    # the basis completion and its inverse are explicit in the initial state
    from streamcalc import matrix

    calls = []
    eliminate = matrix._eliminate

    def counted(domain, rows, cols):
        calls.append(len(rows))
        return eliminate(domain, rows, cols)

    monkeypatch.setattr(matrix, "_eliminate", counted)
    for initial in ((0, 1), (2, 3), (1, 1)):
        calls.clear()
        standard = standardize_initial_state(PointedLinearSystem(NATURALS, initial))
        assert standard.initial == (1, 0)
        assert len(calls) == 0
