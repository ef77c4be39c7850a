"""Behaviour, observability and minimize on the orbit's integer form.

``Matrix.integer_orbit`` hands its integers to Berlekamp-Massey
(``CoordinateStreams``) and to the elimination (``minimize``) with no term
boxed.  Each public answer is checked against its boxed reference in
``util``: ``minimize`` against ``boxed_minimize``, ``observability_matrix``
against ``boxed_observability``, and system and automaton ``behaviour``
against ``from_sequence`` of ``boxed_orbit``.  Over Q (every kind of
``DENOMINATORS``, 40-digit ones among them), GF(2), GF(101) and
GF(2^61 - 1), on systems with unobservable states, zero output rows and
all-zero states.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from streamcalc import (
    LinearSystem,
    Matrix,
    PointedLinearSystem,
    PrimeField,
    QQ,
    RationalStream,
    change_basis,
    minimize,
    observability_matrix,
    states_equivalent,
)
from streamcalc.automaton import WeightedAutomaton
from util import DENOMINATORS, boxed_dot, boxed_minimize, boxed_observability, boxed_orbit

FIELDS = (QQ, PrimeField(2), PrimeField(101), PrimeField(2**61 - 1))
NUMERATORS = st.integers(-9, 9) | st.integers(-(2**70), 2**70)


@st.composite
def scalars(draw, field):
    """A strategy of the field's elements, zero often: over Q with one kind of
    ``DENOMINATORS`` drawn for the whole case."""
    if field == QQ:
        kind = draw(st.sampled_from(sorted(DENOMINATORS)))
        nonzero = st.builds(Fraction, NUMERATORS, DENOMINATORS[kind])
    else:
        nonzero = st.builds(field.coerce, NUMERATORS)
    return st.just(field.zero()) | nonzero


@st.composite
def cases(draw):
    """(pointed, unobservable): a pointed system of r + k states, k of them
    unobservable (F = [[A, 0], [B, C]], H = [H1, 0]), with 1-3 outputs, some
    of them zero rows, an initial state that may be all zero, and, half the
    time, conjugated by T = L U for unit lower and upper triangular L and U;
    ``unobservable`` is T (0, z) for a drawn z, a state that H F^t sends to
    0."""
    field = draw(st.sampled_from(FIELDS))
    entry = draw(scalars(field))
    r, k, m = draw(st.integers(0, 4)), draw(st.integers(0, 2)), draw(st.integers(1, 3))
    n, zero, one = r + k, field.zero(), field.one()
    dynamics = [[draw(entry) if i >= r or j < r else zero for j in range(n)] for i in range(n)]
    zero_rows = draw(st.sets(st.integers(0, m - 1), max_size=m))
    output = [[draw(entry) if j < r and i not in zero_rows else zero for j in range(n)] for i in range(m)]
    initial = (zero,) * n if draw(st.booleans()) else tuple(draw(entry) for _ in range(n))
    pointed = PointedLinearSystem(LinearSystem(Matrix(field, dynamics, cols=n), Matrix(field, output, cols=n)), initial)
    hidden = [zero] * r + [draw(entry) for _ in range(k)]
    if draw(st.booleans()):
        lower = Matrix(field, [[draw(entry) if j < i else one if j == i else zero for j in range(n)] for i in range(n)], cols=n)
        upper = Matrix(field, [[draw(entry) if j > i else one if j == i else zero for j in range(n)] for i in range(n)], cols=n)
        transform = lower * upper
        pointed, hidden = change_basis(pointed, transform), list(transform.apply(hidden))
    return pointed, tuple(hidden)


def boxed_outputs(system, state, steps):
    """H F^t state for t < steps, each by ``boxed_orbit`` and ``boxed_dot``."""
    field = system.field
    return [tuple(boxed_dot(field, row, x) for row in system.output.entries)
            for x in boxed_orbit(system.dynamics, state, steps)]


def fitted(field, vectors, width):
    """``from_sequence`` of each coordinate of the boxed ``vectors``."""
    return tuple(RationalStream.from_sequence(field, [v[i] for v in vectors]) for i in range(width))


@settings(max_examples=150)
@given(cases())
def test_minimize_matches_the_boxed_reference(case):
    pointed, _ = case
    assert minimize(pointed) == boxed_minimize(pointed)


@settings(max_examples=150)
@given(cases(), st.data())
def test_observability_and_equivalence_match_the_boxed_references(case, data):
    pointed, hidden = case
    system, first, field = pointed.system, pointed.initial, pointed.field
    assert observability_matrix(system) == boxed_observability(system)
    others = (tuple(a + b for a, b in zip(first, hidden)),
              tuple(field.coerce(data.draw(st.integers(-3, 3))) for _ in first))
    for second in others:
        difference = tuple(a - b for a, b in zip(first, second))
        same = not any(v for out in boxed_outputs(system, difference, system.dim) for v in out)
        assert states_equivalent(system, first, second) == same
    assert states_equivalent(system, first, others[0])


@settings(max_examples=150)
@given(cases())
def test_system_behaviour_matches_the_boxed_orbit(case):
    pointed, _ = case
    system, n = pointed.system, pointed.dim
    outputs = boxed_outputs(system, pointed.initial, 2 * n)
    assert pointed.behaviour() == fitted(pointed.field, outputs, system.num_outputs)
    assert pointed.step_outputs(2 * n) == outputs


@settings(max_examples=150)
@given(cases())
def test_automaton_behaviour_matches_the_boxed_orbit(case):
    """The automaton of F as weights and a drawn row of H as outputs."""
    pointed, _ = case
    system, field = pointed.system, pointed.field
    automaton = WeightedAutomaton(system.output.entries[-1], system.dynamics)
    iterates = boxed_orbit(automaton.weights, automaton.outputs, 2 * automaton.size)
    assert automaton.weights.orbit(automaton.outputs, 2 * automaton.size) == iterates
    assert automaton.behaviour() == fitted(field, iterates, automaton.size)
