"""The Berlekamp-Massey behaviour kernel against the k(X) resolvent oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcalc import (
    LinearSystem,
    Matrix,
    PointedLinearSystem,
    Polynomial,
    PrimeField,
    QQ,
    RationalStream,
    ShapeMismatch,
    fit_recurrence,
    kernel_basis,
    minimize,
    observability_matrix,
    realize,
    resolvent_streams,
    states_equivalent,
)
from streamcalc import analysis, matrix, poly
from streamcalc.automaton import WeightedAutomaton
from streamcalc.circuit import CanonicalCircuit
from util import stream

FIELDS = (QQ, PrimeField(2), PrimeField(101))


@st.composite
def systems(draw):
    """(field, F, H, v) with n = 0..6 and 1-3 outputs; dense, sparse,
    nilpotent (strictly upper triangular) or zero dynamics."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(0, 6))
    m = draw(st.integers(1, 3))
    shape = draw(st.sampled_from(("dense", "sparse", "nilpotent", "zero")))
    entry = st.integers(-3, 3)
    if shape == "sparse":
        entry = st.sampled_from((0, 0, 0, 1, -1, 2))
    square = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if shape == "nilpotent":
        square = [[square[i][j] if j > i else 0 for j in range(n)] for i in range(n)]
    elif shape == "zero":
        square = [[0] * n for _ in range(n)]
    output = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=m, max_size=m))
    vector = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    return (
        field,
        Matrix(field, square, cols=n),
        Matrix(field, output, cols=n),
        tuple(field.coerce(v) for v in vector),
    )


@settings(max_examples=200)
@given(systems())
def test_system_behaviour_matches_resolvent(case):
    field, dynamics, output, state = case
    inner = resolvent_streams(dynamics, state)
    expected = []
    for row in output.entries:
        acc = RationalStream.zero(field)
        for h, s in zip(row, inner):
            acc = acc + s * RationalStream.constant(field, h)
        expected.append(acc)
    assert LinearSystem(dynamics, output).behaviour(state) == tuple(expected)


@settings(max_examples=200)
@given(systems())
def test_automaton_behaviour_matches_resolvent(case):
    _, weights, _, outputs = case
    automaton = WeightedAutomaton(outputs, weights)
    assert automaton.behaviour() == resolvent_streams(weights, automaton.outputs)


def test_behaviour_rejects_wrong_state_length():
    system = LinearSystem(Matrix.zero(QQ, 0, 0), Matrix.zero(QQ, 1, 0))
    with pytest.raises(ShapeMismatch):
        system.behaviour((1,))


def test_from_sequence_all_zero():
    for n in (0, 1, 6):
        assert RationalStream.from_sequence(QQ, [0] * n) == RationalStream.zero(QQ)


def test_from_sequence_leading_zeros():
    # X^3 has linear complexity 4, so eight terms determine it
    assert RationalStream.from_sequence(QQ, [0, 0, 0, 1, 0, 0, 0, 0]) == stream(
        [0, 0, 0, 1]
    )
    # X^2/(1-2X): complexity 3
    terms = [0, 0, 1, 2, 4, 8]
    assert RationalStream.from_sequence(QQ, terms) == stream([0, 0, 1], [1, -2])


def test_from_sequence_at_half_length():
    fib = stream([1], [1, -1, -1])
    assert RationalStream.from_sequence(QQ, fib.expand(4)) == fib
    gf7 = PrimeField(7)
    s = RationalStream(Polynomial(gf7, [2, 5]), Polynomial(gf7, [1, 3, 4]))
    assert RationalStream.from_sequence(gf7, s.expand(4)) == s
    connection, length = gf7.berlekamp_massey(s.expand(4))
    assert (Polynomial(gf7, connection), length) == (s.den, 2)


@given(st.lists(st.integers(-4, 4), min_size=1, max_size=4),
       st.lists(st.integers(-4, 4), min_size=0, max_size=4),
       st.sampled_from(FIELDS))
def test_from_sequence_recovers_closed_forms(num, den, field):
    s = RationalStream(Polynomial(field, num), Polynomial(field, [1] + den))
    length = max(s.den.degree, s.num.degree + 1)
    assert RationalStream.from_sequence(field, s.expand(2 * length)) == s
    assert RationalStream.from_sequence(field, s.expand(2 * length + 3)) == s


def test_hot_paths_avoid_the_kx_oracle(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("k(X) code reached from a hot path")

    # resolvent_streams and resolvent both go through _shifted_complement
    monkeypatch.setattr(matrix, "_shifted_complement", forbidden)
    monkeypatch.setattr(poly.RationalFunction, "__init__", forbidden)

    dynamics = Matrix(QQ, [[0, -1], [1, 2]])
    pointed = PointedLinearSystem(LinearSystem(dynamics, Matrix(QQ, [[1, 2]])), (1, 0))
    naturals = stream([1], [1, -2, 1])
    assert pointed.behaviour() == (naturals,)
    assert WeightedAutomaton.from_linear_system(pointed).behaviour()[0] == naturals
    circuit = CanonicalCircuit.from_linear_system(pointed)
    assert analysis.to_rational(circuit) == naturals
    assert analysis.first_difference(pointed, stream([1], [1, -1])) == 1
    assert fit_recurrence(naturals.expand(8), 4) == (-1, 2)


def test_realize_neither_differentiates_nor_eliminates(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("realize differentiated or eliminated")

    monkeypatch.setattr(RationalStream, "derivative", forbidden)
    monkeypatch.setattr(matrix, "_eliminate", forbidden)

    pointed = realize([stream([1], [1, -2]), stream([1], [1, -2, 1])])
    assert pointed.system.dynamics == Matrix(QQ, [[0, 0, 2], [1, 0, -5], [0, 1, 4]])
    assert pointed.system.output == Matrix(QQ, [[1, 2, 4], [1, 2, 3]])


@given(systems())
def test_orbit_matches_repeated_apply(case):
    _, dynamics, _, state = case
    n = dynamics.rows
    expected, vector = [], state
    for _ in range(2 * n + 3):
        expected.append(vector)
        vector = dynamics.apply(vector)
    for steps in range(2 * n + 4):
        assert dynamics.orbit(state, steps) == expected[:steps]


def test_orbit_needs_a_square_matrix():
    with pytest.raises(ShapeMismatch):
        Matrix(QQ, [[1, 2]]).orbit((1, 2), 3)


@settings(max_examples=100)
@given(systems(), st.data())
def test_states_equivalent_iff_same_behaviour(case, data):
    field, dynamics, output, first = case
    n = dynamics.rows
    system = LinearSystem(dynamics, output)
    if data.draw(st.booleans()):
        # first plus a random unobservable vector: an equivalent state
        second = first
        for kernel_vector in kernel_basis(observability_matrix(system)):
            c = field.coerce(data.draw(st.integers(-2, 2)))
            second = tuple(a + c * b for a, b in zip(second, kernel_vector))
    else:
        second = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    same = system.behaviour(first) == system.behaviour(second)
    assert states_equivalent(system, first, second) == same


def test_iterations_reach_the_orbit_kernel(monkeypatch):
    """Every behaviour iterates through the integer orbit; a system's outputs
    are read off it (H passed in), an automaton's states, the observability
    rows and minimize's rows are the plain orbit."""
    calls = []
    integer_orbit = Matrix.integer_orbit

    def counted(self, vector, steps, output=None):
        calls.append(output)
        return integer_orbit(self, vector, steps, output)

    monkeypatch.setattr(Matrix, "integer_orbit", counted)
    system = LinearSystem(Matrix(QQ, [[0, -1], [1, 2]]), Matrix(QQ, [[1, 2]]))
    automaton = WeightedAutomaton((1, 2), Matrix(QQ, [[0, 1], [-1, 2]]))
    runs = {
        "LinearSystem.behaviour": (lambda: system.behaviour((1, 0)), system.output),
        "LinearSystem.step_outputs": (lambda: system.step_outputs((1, 0), 3), system.output),
        "WeightedAutomaton.behaviour": (automaton.behaviour, None),
        "observability_matrix": (lambda: observability_matrix(system), None),
        "minimize": (lambda: minimize(PointedLinearSystem(system, (1, 0))), None),
        "states_equivalent": (lambda: states_equivalent(system, (1, 0), (0, 1)), system.output),
    }
    for name, (run, output) in runs.items():
        calls.clear()
        run()
        assert calls and all(c is output for c in calls), name
