"""``matrix._eliminate``, the one fraction-free Gauss-Jordan loop on the
integer form, ``matrix._reduced``, which boxes its pivot rows, and the five
functions that read them: ``rref``, ``rank``, ``solve``, ``inverse`` and
``kernel_basis``.

Each is checked against the same function run on ``util.boxed_eliminate``,
the elimination on boxed field elements, over Q (every kind of
``DENOMINATORS``), GF(2), GF(101), GF(2^61 - 1) and k(X); and the integer
rows the loop holds over Q are checked to stay within Hadamard's bound.
"""

import random
import signal
from contextlib import contextmanager
from fractions import Fraction
from math import isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcalc import (
    Matrix,
    Polynomial,
    PrimeField,
    QQ,
    RationalFunction,
    inverse,
    kernel_basis,
    rank,
    rref,
    solve,
)
from streamcalc import matrix as matrix_module
from streamcalc.fields import Rationals
from streamcalc.poly import FractionField
from util import DENOMINATORS, boxed_eliminate

GF2, GF101, GF_MERSENNE = PrimeField(2), PrimeField(101), PrimeField(2**61 - 1)
KX = FractionField(QQ)


def q_scalars(kind):
    numerators = st.integers(-9, 9) | st.integers(-(2**70), 2**70)
    return st.builds(Fraction, numerators, DENOMINATORS[kind])


def gf_scalars(field):
    return st.builds(field.coerce, st.integers(-3, 3) | st.integers(-(2**70), 2**70))


@st.composite
def kx_scalars(draw):
    num = draw(st.lists(st.integers(-3, 3), max_size=3))
    den = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=2).filter(any))
    return RationalFunction(Polynomial(QQ, num), Polynomial(QQ, den))


@st.composite
def domains(draw, kx=False):
    """(domain, a strategy of its nonzero-or-zero elements)."""
    if kx:
        return KX, kx_scalars()
    kind = draw(st.sampled_from(["gf:2", "gf:101", "gf:mersenne"] + sorted(DENOMINATORS)))
    if kind in DENOMINATORS:
        return QQ, q_scalars(kind)
    field = {"gf:2": GF2, "gf:101": GF101, "gf:mersenne": GF_MERSENNE}[kind]
    return field, gf_scalars(field)


@st.composite
def matrices(draw, kx=False, largest=6):
    """Tall, wide and square matrices from 0 x n and n x 0 up: dense, or a
    product through an inner dimension below both sides (rank-deficient),
    with some rows and columns then set to zero; or square and full rank, L U
    for L unit lower triangular and U upper triangular with a nonzero
    diagonal, so ``inverse`` has a pivot in each of the first n columns of
    its n x 2n matrix, and the next n columns find none."""
    domain, scalars = draw(domains(kx))
    rows, cols = draw(st.integers(0, largest)), draw(st.integers(0, largest))
    zero, one = domain.zero(), domain.one()
    entries = st.one_of(st.just(zero), scalars)

    def block(r, c):
        return Matrix(domain, draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r)), cols=c)

    shape = draw(st.sampled_from(["dense", "product", "full rank"]))
    if shape == "full rank":
        lower = [[draw(scalars) if j < i else one if j == i else zero for j in range(rows)] for i in range(rows)]
        upper = [[draw(scalars) if j > i else draw(scalars.filter(bool)) if j == i else zero for j in range(rows)]
                 for i in range(rows)]
        return Matrix(domain, lower, cols=rows) * Matrix(domain, upper, cols=rows)
    if shape == "product" and rows and cols:
        inner = draw(st.integers(0, min(rows, cols) - 1))
        matrix = block(rows, inner) * block(inner, cols)
    else:
        matrix = block(rows, cols)
    zero_rows = draw(st.sets(st.integers(0, rows - 1), max_size=2)) if rows else set()
    zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=2)) if cols else set()
    table = [
        [zero if i in zero_rows or j in zero_cols else e for j, e in enumerate(row)]
        for i, row in enumerate(matrix.entries)
    ]
    return Matrix(domain, table, cols=cols)


def with_boxed_elimination(function, *args):
    """``function(*args)`` with ``_reduced`` replaced by the boxed reference."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matrix_module, "_reduced", boxed_eliminate)
        return outcome(function, *args)


def outcome(function, *args):
    """The value of ``function(*args)``, or the type of the error it raised."""
    try:
        return function(*args)
    except Exception as exc:  # compared, not swallowed: both sides must agree
        return type(exc)


def check_against_reference(matrix, data):
    domain = matrix.domain
    rows, pivots = matrix_module._reduced(matrix)
    assert (rows, pivots) == boxed_eliminate(matrix)
    assert all(type(e) is type(domain.zero()) for row in rows for e in row)
    # the integer core: pivot row i over its pivot is reduced row i, the
    # rows past the pivots are zero, and rank reads the pivots alone
    ints = [domain.integers(row)[0] for row in matrix.entries]
    core, core_pivots = matrix_module._eliminate(domain, ints, matrix.cols)
    assert core_pivots == pivots and rank(matrix) == len(pivots)
    assert [domain.ratios(row, row[c]) for row, c in zip(core, pivots)] == rows[: len(pivots)]
    assert not any(e for row in core[len(pivots) :] for e in row)
    for function in (rref, kernel_basis, inverse):
        assert outcome(function, matrix) == with_boxed_elimination(function, matrix)
    inverted = outcome(inverse, matrix)
    if isinstance(inverted, Matrix):
        assert inverted * matrix == Matrix.identity(domain, matrix.rows)
    # a consistent right-hand side M x, and an arbitrary one, which a
    # rank-deficient M mostly cannot meet
    x = [domain.coerce(v) for v in data.draw(st.lists(st.integers(-3, 3), min_size=matrix.cols, max_size=matrix.cols))]
    arbitrary = [domain.coerce(v) for v in data.draw(st.lists(st.integers(-3, 3), min_size=matrix.rows, max_size=matrix.rows))]
    consistent = matrix.apply(x)
    for rhs in (consistent, arbitrary):
        found = solve(matrix, rhs)
        assert found == with_boxed_elimination(solve, matrix, rhs)
        if found is None:
            assert rhs is not consistent
        else:
            assert matrix.apply(found) == tuple(rhs)


@settings(max_examples=400)
@given(matrices(), st.data())
def test_elimination_over_scalar_fields_matches_boxed_reference(matrix, data):
    check_against_reference(matrix, data)


@settings(max_examples=60)
@given(matrices(kx=True, largest=3), st.data())
def test_elimination_over_kx_matches_boxed_reference(matrix, data):
    check_against_reference(matrix, data)


def test_inconsistent_system_has_no_solution():
    for domain in (QQ, GF2, GF101, GF_MERSENNE, KX):
        matrix = Matrix(domain, [[1, 2], [2, 4], [0, 0]])
        assert solve(matrix, [1, 3, 0]) is None
        assert solve(matrix, [1, 2, 1]) is None
        assert solve(matrix, [1, 2, 0]) == with_boxed_elimination(solve, matrix, [1, 2, 0])


@given(st.lists(kx_scalars(), max_size=5))
def test_kx_integer_form_keeps_the_elements(elements):
    polys, d = KX.integers(elements)
    assert KX.ratios(polys, d) == elements
    assert all(isinstance(p, Polynomial) for p in polys)
    shrunk, e = KX.shrink([p * Polynomial(QQ, [1, 2]) for p in polys], d * Polynomial(QQ, [1, 2]))
    assert KX.ratios(shrunk, e) == elements
    assert e.degree <= d.degree


@contextmanager
def time_bound(seconds):
    """Fail the block if it runs longer than ``seconds`` (by SIGALRM)."""

    def expire(signum, frame):
        raise AssertionError(f"ran past its time bound of {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class RecordedRationals(Rationals):
    """Q, recording every integer row ``shrink`` returns and ``ratios`` boxes."""

    def __init__(self):
        self.rows = []

    def shrink(self, ints, d):
        ints, d = super().shrink(ints, d)
        self.rows.append(ints)
        return ints, d

    def ratios(self, ints, d):
        self.rows.append(list(ints))
        return super().ratios(ints, d)


def test_integer_rows_stay_within_hadamards_bound():
    """Every row the loop holds over Q is primitive and proportional to a
    vector of minors of the matrix, so its entries are at most Hadamard's
    bound, the product of the rows' Euclidean norms: on a 16 x 16 matrix with
    64-bit entries about 1060 bits, where an update without the content
    strip doubles the bits every pivot."""
    rng = random.Random(16)
    table = [[rng.randint(-(2**64), 2**64) for _ in range(16)] for _ in range(16)]
    hadamard = prod(isqrt(sum(a * a for a in row)) + 1 for row in table)
    field = RecordedRationals()
    matrix = Matrix(field, table)
    with time_bound(10):
        _, pivots = matrix_module._reduced(matrix)
    assert pivots == list(range(16))
    assert len(field.rows) > 16 * 15
    widest = max(abs(a) for row in field.rows for a in row)
    assert widest.bit_length() <= hadamard.bit_length() + 8
