"""The one forward recurrence ``RationalStream._terms`` and what reads it.

``expand``, ``coefficient``, ``iterated_derivative``,
``StreamPrefix.from_rational`` and, past 2 * dim, ``step_outputs`` all take
their coefficients from it; ``step_outputs`` past 2 * dim expands the closed
forms of ``behaviour``.  Each is checked against an independent reference:
the closed-form ``derivative`` chain, and H F^t v from the boxed orbit of
``util``.
"""

from hypothesis import given
from hypothesis import strategies as st

from streamcalc import (
    LinearSystem,
    Matrix,
    Polynomial,
    PrimeField,
    QQ,
    RationalStream,
    StreamPrefix,
)
from streamcalc.expr import evaluate_text
from util import boxed_dot, boxed_orbit

FIELDS = (QQ, PrimeField(2), PrimeField(101))


@st.composite
def streams(draw, field):
    """Zero, polynomial and general streams, reduced by the checked constructor."""
    num = draw(st.lists(st.integers(-9, 9), max_size=7))
    den = [1] + draw(st.lists(st.integers(-9, 9), max_size=draw(st.sampled_from([0, 0, 6]))))
    return RationalStream(Polynomial(field, num), Polynomial(field, den))


@given(st.data(), st.sampled_from(FIELDS), st.integers(0, 15))
def test_iterated_derivative_is_the_derivative_chain(data, field, k):
    s = data.draw(streams(field))
    expected = s
    for _ in range(k):
        expected = expected.derivative()
    got = s.iterated_derivative(k)
    assert got == expected
    assert (got.num.coeffs, got.den.coeffs, str(got)) == (
        expected.num.coeffs, expected.den.coeffs, str(expected)
    )


def test_iterated_derivative_of_polynomials_past_their_degree():
    p = evaluate_text("1 + 2*X + 3*X^2")
    assert str(p.iterated_derivative(2)) == "3"
    assert p.iterated_derivative(3) == RationalStream.zero(QQ)
    assert p.iterated_derivative(40).den == Polynomial.one(QQ)
    assert str(evaluate_text("X^3/(1-X)").iterated_derivative(2)) == "(X)/(1 - X)"


def counted_kernel(monkeypatch, field):
    """The list that gets one entry per term ``field``'s ``recurrence`` yields."""
    original, terms = type(field).recurrence, []

    def counted(descriptor, num, den):
        for term in original(descriptor, num, den):
            terms.append(None)
            yield term

    monkeypatch.setattr(type(field), "recurrence", counted)
    return terms


def test_iterated_derivative_reads_k_terms_and_fits_nothing(monkeypatch):
    """k kernel terms, then one integer dot per numerator coefficient, the
    numerator reduced once: no Berlekamp-Massey, so no field inversions,
    whatever k is."""
    s = evaluate_text("(1 + X^4)/(1 - X - X^2)")  # deg q = 2, deg p = 4
    expected = [s]
    for _ in range(12):
        expected.append(expected[-1].derivative())

    def forbidden(*args):
        raise AssertionError("iterated_derivative fitted a recurrence")

    reduce, numerators = Polynomial._reduce.__func__, []

    def counted(cls, field, ints, d=1):
        numerators.append(len(ints))
        return reduce(cls, field, ints, d)

    monkeypatch.setattr(type(QQ), "berlekamp_massey", forbidden)
    monkeypatch.setattr(type(QQ), "inv", forbidden)
    monkeypatch.setattr(Polynomial, "_reduce", classmethod(counted))
    terms = counted_kernel(monkeypatch, QQ)
    for k in range(13):
        terms.clear()
        numerators.clear()
        assert s.iterated_derivative(k) == expected[k]
        assert len(terms) == k
        # L = max(deg q, deg p - k + 1) numerator coefficients, one reduction
        assert numerators == [max(2, 5 - k)]


@given(st.data(), st.sampled_from(FIELDS), st.integers(0, 40))
def test_coefficient_is_the_expansion_entry(data, field, i):
    s = data.draw(streams(field))
    assert s.coefficient(i) == s.expand(i + 1)[i]
    assert type(s.coefficient(i)) is type(s.expand(i + 1)[i])


def test_prefix_takes_each_coefficient_once(monkeypatch):
    fibonacci = evaluate_text("1/(1-X-X^2)")
    terms = counted_kernel(monkeypatch, QQ)
    prefix = StreamPrefix.from_rational(fibonacci)
    assert prefix.take(80)[-1] == 23416728348467685
    assert len(terms) == 80
    assert prefix.take(80) == fibonacci.expand(80)


@st.composite
def systems(draw, field):
    """A system of dimension 0..5 with 1 or 2 outputs, and a state."""
    n = draw(st.integers(0, 5))
    m = draw(st.integers(1, 2))
    entries = st.integers(-3, 3) | st.just(0)
    dynamics = Matrix(field, draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                           min_size=n, max_size=n)), cols=n)
    output = Matrix(field, draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                         min_size=m, max_size=m)), cols=n)
    state = draw(st.lists(entries, min_size=n, max_size=n))
    return LinearSystem(dynamics, output), state


@given(st.data(), st.sampled_from(FIELDS + (PrimeField(2**61 - 1),)),
       st.sampled_from(["short", "2n", "2n+1", "long"]))
def test_step_outputs_are_outputs_of_the_boxed_orbit(data, field, length):
    system, state = data.draw(systems(field))
    two_n = 2 * system.dim
    steps = {"short": data.draw(st.integers(0, max(two_n - 1, 0))), "2n": two_n,
             "2n+1": two_n + 1, "long": data.draw(st.integers(two_n + 1, two_n + 30))}[length]
    expected = [
        tuple(boxed_dot(field, row, x) for row in system.output.entries)
        for x in boxed_orbit(system.dynamics, state, steps)
    ]
    assert system.step_outputs(state, steps) == expected


def test_step_outputs_past_2n_expand_the_closed_forms(monkeypatch):
    """Up to 2n no term is drawn from the recurrence; past 2n each output's
    closed form draws exactly ``steps`` terms."""
    dynamics = Matrix(QQ, [[0, 1, 0], [2, 0, 1], [1, 1, 1]])
    system, state = LinearSystem(dynamics, Matrix(QQ, [[1, 0, 2], [0, 1, 0]])), (1, -1, 2)
    expected = [
        tuple(boxed_dot(QQ, row, x) for row in system.output.entries)
        for x in boxed_orbit(dynamics, state, 25)
    ]
    drawn = []
    terms = RationalStream._terms

    def counted(stream):
        for term in terms(stream):
            drawn.append(None)
            yield term

    monkeypatch.setattr(RationalStream, "_terms", counted)
    for steps in (0, 5, 6, 7, 25):
        drawn.clear()
        assert system.step_outputs(state, steps) == expected[:steps]
        assert len(drawn) == (2 * steps if steps > 6 else 0)


def test_recurrence_readers_need_no_derivative_and_no_apply(monkeypatch):
    s = evaluate_text("(2 - X^5)/(1 - X - 3*X^2)")
    dynamics = Matrix(QQ, [[0, 1, 0], [2, 0, 1], [1, 1, 1]])
    system, state = LinearSystem(dynamics, Matrix(QQ, [[1, 0, 2], [0, 1, 0]])), (1, -1, 2)
    before = (s.iterated_derivative(9), s.coefficient(30), system.behaviour(state),
              system.step_outputs(state, 4), system.step_outputs(state, 25))

    def forbidden(*args):
        raise AssertionError("a recurrence reader took the slow path")

    orbit_lengths = []
    integer_orbit = Matrix.integer_orbit

    def recorded(matrix, vector, steps, output=None):
        orbit_lengths.append(steps)
        return integer_orbit(matrix, vector, steps, output)

    monkeypatch.setattr(RationalStream, "derivative", forbidden)
    monkeypatch.setattr(Matrix, "apply", forbidden)
    monkeypatch.setattr(Matrix, "integer_orbit", recorded)
    after = (s.iterated_derivative(9), s.coefficient(30), system.behaviour(state),
             system.step_outputs(state, 4), system.step_outputs(state, 25))
    assert after == before
    assert orbit_lengths and max(orbit_lengths) <= 2 * system.dim
