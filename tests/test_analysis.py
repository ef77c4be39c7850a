import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcalc import (
    AutomatonState,
    CanonicalCircuit,
    InsufficientPrefix,
    Matrix,
    Polynomial,
    PrimeField,
    QQ,
    RationalStream,
    WeightedAutomaton,
    equivalent,
    first_difference,
    fit_recurrence,
    hankel_rank,
    nonrationality_probe,
    realize,
    to_rational,
)
from streamcalc import matrix
from streamcalc.expr import evaluate_text
from streamcalc.fields import field_of
from streamcalc.matrix import rank
from streamcalc.ratstream import berlekamp_massey
from util import boxed_berlekamp_massey, random_stream, triangular_prefix

NATURALS = evaluate_text("1/(1-X)^2")
NATURALS_CIRCUIT = CanonicalCircuit(
    Matrix(QQ, [[0, -1], [1, 2]]), Matrix(QQ, [[1, 2]]), (1, 0)
)
TWO_STATE = WeightedAutomaton((1, 2), Matrix(QQ, [[0, 1], [-1, 2]]))


def test_to_rational_identity_on_closed_forms():
    assert to_rational(NATURALS) is NATURALS


def test_to_rational_circuit():
    assert to_rational(NATURALS_CIRCUIT) == NATURALS


def test_to_rational_automaton_state():
    assert to_rational(AutomatonState(TWO_STATE, 1)) == evaluate_text("(2-X)/(1-X)^2")


def test_equivalent_across_representations():
    system = realize([NATURALS])
    assert equivalent(system, AutomatonState(TWO_STATE, 0))
    assert equivalent(NATURALS_CIRCUIT, NATURALS)
    assert not equivalent(evaluate_text("1/(1-X)"), evaluate_text("1/(1-2*X)"))


def test_first_difference_index():
    assert first_difference(NATURALS, NATURALS) is None
    assert first_difference(evaluate_text("1/(1-X)"), evaluate_text("1/(1-2*X)")) == 1
    assert first_difference(evaluate_text("1+X^5"), evaluate_text("1")) == 5


def test_equivalence_relation_sanity():
    rng = random.Random(51)
    samples = [random_stream(rng, max_deg=3) for _ in range(6)]
    for s in samples:
        assert equivalent(s, s)
        rep = realize([s])
        assert equivalent(s, rep) == equivalent(rep, s)
    for a in samples:
        for b in samples:
            for c in samples:
                if equivalent(a, b) and equivalent(b, c):
                    assert equivalent(a, c)


def test_hankel_rank_of_naturals():
    prefix = NATURALS.expand(19)
    assert hankel_rank(prefix, 10) == 2


def test_hankel_rank_of_constants():
    assert hankel_rank([Fraction(3)] * 9, 5) == 1
    assert hankel_rank([Fraction(0)] * 9, 5) == 0


def test_hankel_rank_of_triangular_indicator():
    assert hankel_rank(triangular_prefix(QQ, 41), 20) == 20


def test_hankel_rank_needs_enough_coefficients():
    with pytest.raises(InsufficientPrefix):
        hankel_rank([Fraction(1)] * 4, 3)


def test_hankel_rank_stabilizes_at_realization_dimension():
    rng = random.Random(52)
    for _ in range(10):
        s = random_stream(rng)
        dim = realize([s]).dim
        for size in range(1, 13):
            observed = hankel_rank(s.expand(2 * size - 1), size)
            assert observed <= dim <= max(s.num.degree + 1, s.den.degree)
            if s.num.degree < s.den.degree:
                assert observed <= max(s.num.degree, s.den.degree)
            if size >= dim:
                assert observed == dim


def test_probe_flags_triangular_indicator():
    report = nonrationality_probe(triangular_prefix(QQ, 41), 10)
    assert report.verdict == "NotRationalBelowBound(10)"
    assert report.rank == 11
    assert report.hankel_size == 11
    assert report.prefix_len == 41


def test_probe_consistent_for_rational_prefix():
    report = nonrationality_probe(NATURALS.expand(11), 5)
    assert report.verdict == "RationalWitnessConsistent"
    assert report.rank == 2


def test_probe_zero_prefix():
    report = nonrationality_probe([Fraction(0)] * 11, 5)
    assert report.verdict == "RationalWitnessConsistent"
    assert report.rank == 0


def test_probe_needs_enough_coefficients():
    with pytest.raises(InsufficientPrefix):
        nonrationality_probe([Fraction(1)] * 10, 5)


def test_report_rendering():
    report = nonrationality_probe(triangular_prefix(QQ, 41), 10)
    assert report.render() == (
        "prefix_len: 41\nhankel_size: 11\nrank: 11\n"
        "verdict: NotRationalBelowBound(10)\n"
    )


def test_fit_recurrence_on_naturals():
    prefix = [Fraction(v) for v in (1, 2, 3, 4, 5, 6)]
    assert fit_recurrence(prefix, 3) == (Fraction(-1), Fraction(2))


def test_fit_recurrence_geometric():
    for c in (2, 5, -3):
        prefix = [Fraction(c) ** k for k in range(8)]
        assert fit_recurrence(prefix, 4) == (Fraction(c),)


def test_fit_recurrence_zero_prefix():
    assert fit_recurrence([Fraction(0)] * 6, 3) == ()


def test_fit_recurrence_absent():
    assert fit_recurrence(triangular_prefix(QQ, 20), 8) is None


def test_fit_recurrence_matches_companion_column():
    rng = random.Random(53)
    for _ in range(15):
        s = random_stream(rng)
        pointed = realize([s])
        n = pointed.dim
        if n == 0:
            continue
        width = max(s.num.degree, s.den.degree) + 1
        prefix = s.expand(2 * width)
        fitted = fit_recurrence(prefix, width)
        last_column = tuple(
            pointed.system.dynamics.entries[i][n - 1] for i in range(n)
        )
        assert fitted == last_column


# --- hankel_rank = min(L, 2m - L) against elimination ----------------------


def oracle_rank(prefix, size):
    """Rank of the size x size Hankel matrix by Gaussian elimination."""
    field = field_of(prefix[0])
    rows = [[prefix[i + j] for j in range(size)] for i in range(size)]
    return rank(Matrix(field, rows, cols=size))


@pytest.mark.parametrize("modulus, max_size", [(2, 5), (3, 4)])
def test_hankel_rank_exhaustive_over_small_fields(modulus, max_size):
    field = PrimeField(modulus)
    for size in range(1, max_size + 1):
        for values in itertools.product(range(modulus), repeat=2 * size - 1):
            prefix = [field.from_int(v) for v in values]
            assert hankel_rank(prefix, size) == oracle_rank(prefix, size), values


ORACLE_FIELDS = (QQ, PrimeField(7), PrimeField(101))


@st.composite
def hankel_cases(draw):
    """(prefix, size): entries in {0, +-1, 2} so that deficient ranks occur,
    with leading zeros, all-zero prefixes and prefixes longer than 2m - 1."""
    field = draw(st.sampled_from(ORACLE_FIELDS))
    size = draw(st.integers(1, 8))
    length = 2 * size - 1 + draw(st.integers(0, 3))
    shape = draw(st.sampled_from(("random", "leading zeros", "zero")))
    values = draw(st.lists(st.sampled_from((0, 1, -1, 2)), min_size=length, max_size=length))
    if shape == "leading zeros":
        zeros = draw(st.integers(1, length))
        values = [0] * zeros + values[zeros:]
    elif shape == "zero":
        values = [0] * length
    return [field.from_int(v) for v in values], size


@settings(max_examples=300)
@given(hankel_cases())
def test_hankel_rank_matches_elimination(case):
    prefix, size = case
    assert hankel_rank(prefix, size) == oracle_rank(prefix, size)


@settings(max_examples=200)
@given(hankel_cases())
def test_probe_verdicts_match_elimination(case):
    prefix, size = case
    bound = size - 1
    observed = oracle_rank(prefix, size)
    report = nonrationality_probe(prefix, bound)
    assert report.rank == observed
    if observed > bound:
        assert report.verdict == f"NotRationalBelowBound({bound})"
    else:
        assert report.verdict == "RationalWitnessConsistent"


PROBE_FIELDS = (QQ, PrimeField(2), PrimeField(101))


@st.composite
def probed_streams(draw):
    """A reduced p/q, its linear complexity L and a probe bound d in 0..L+1."""
    field = draw(st.sampled_from(PROBE_FIELDS))
    num = draw(st.lists(st.integers(-9, 9), max_size=5))
    den = [1] + draw(st.lists(st.integers(-9, 9), max_size=4))
    s = RationalStream(Polynomial(field, num), Polynomial(field, den))
    complexity = max(s.den.degree, s.num.degree + 1)
    return s, complexity, draw(st.integers(0, complexity + 1))


@settings(max_examples=300)
@given(probed_streams())
def test_probe_verdict_bounds_the_linear_complexity(case):
    # the verdict at d rules out exactly the linear systems of dimension <= d:
    # it never fires when L <= d, and it fires at d = L - 1, where the 2L - 1
    # coefficients already have linear complexity L
    s, complexity, d = case
    flagged = nonrationality_probe(s.expand(2 * d + 1), d).verdict == (
        f"NotRationalBelowBound({d})"
    )
    if complexity <= d:
        assert not flagged
    if complexity == d + 1:
        assert flagged


def test_probe_verdict_is_one_sided():
    # below L - 1 a short prefix may have lower complexity than the stream:
    # X^2 has L = 3, but 0, 0, 1 gives a 2 x 2 Hankel rank of 1
    assert nonrationality_probe(evaluate_text("X^2").expand(3), 1).verdict == (
        "RationalWitnessConsistent"
    )
    # a polynomial p has L = deg p + 1, so 1 + X = (1 + X)/1 is flagged at 1
    assert nonrationality_probe(evaluate_text("1+X").expand(3), 1).verdict == (
        "NotRationalBelowBound(1)"
    )


def test_rank_and_probe_never_eliminate(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("hankel_rank or the probe reached matrix._eliminate")

    monkeypatch.setattr(matrix, "_eliminate", forbidden)
    for field in ORACLE_FIELDS:
        triangular = triangular_prefix(field, 41)
        assert hankel_rank(triangular, 20) == 20
        assert nonrationality_probe(triangular, 10).rank == 11
        naturals = [field.from_int(k + 1) for k in range(19)]
        assert hankel_rank(naturals, 10) == 2
        assert nonrationality_probe(naturals, 5).verdict == "RationalWitnessConsistent"
        assert hankel_rank([field.zero()] * 9, 5) == 0


# --- the raw-value Berlekamp-Massey kernel against the boxed reference -----

KERNEL_FIELDS = (QQ, PrimeField(2), PrimeField(2**61 - 1))


@st.composite
def kernel_cases(draw):
    """(field, terms): free terms (Fractions over Q), or a prefix of a random
    rational stream, so that both long and short recurrences occur."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    if draw(st.booleans()):
        if field == QQ:
            scalar = st.fractions(min_value=-9, max_value=9, max_denominator=6)
        else:
            scalar = st.integers(-(2**70), 2**70)
        return field, draw(st.lists(scalar, max_size=24))
    num = draw(st.lists(st.integers(-5, 5), max_size=5))
    den = draw(st.lists(st.integers(-5, 5), max_size=5))
    s = RationalStream(Polynomial(field, num), Polynomial(field, [1] + den))
    return field, s.expand(draw(st.integers(0, 24)))


@settings(max_examples=300)
@given(kernel_cases())
def test_berlekamp_massey_matches_boxed_reference(case):
    field, terms = case
    connection, length = berlekamp_massey(field, terms)
    assert (connection, length) == boxed_berlekamp_massey(field, terms)
    # field elements on exit, not raw values that merely compare equal
    assert all(field_of(c) == field for c in connection.coeffs)


@settings(max_examples=150)
@given(kernel_cases())
def test_from_sequence_matches_boxed_reference(case):
    field, terms = case
    s = RationalStream.from_sequence(field, terms)
    connection, length = boxed_berlekamp_massey(field, terms)
    assert s.den == connection
    assert s.num.degree < max(length, 1)
    assert s.expand(len(terms)) == [field.coerce(t) for t in terms]
