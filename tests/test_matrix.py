import random
import sys
from fractions import Fraction

import pytest

from streamcalc import (
    CountTooLarge,
    FieldMismatch,
    Matrix,
    Polynomial,
    QQ,
    RationalFunction,
    RationalStream,
    ShapeMismatch,
    SingularMatrix,
    StreamPrefix,
    format_matrix,
    inverse,
    kernel_basis,
    observability_matrix,
    parse_matrix,
    rank,
    realize,
    resolvent,
    resolvent_streams,
    rref,
    solve,
)
from streamcalc import matrix as matrix_module
from streamcalc.poly import FractionField
from util import poly, random_stream, stream

KX = FractionField(QQ)


def rf(num_coeffs, den_coeffs=(1,)):
    return RationalFunction(poly(QQ, *num_coeffs), poly(QQ, *den_coeffs))


def test_identity_law():
    m = Matrix(QQ, [[1, 2], [3, 4]])
    assert Matrix.identity(QQ, 2) * m == m


def test_product_by_hand():
    a = Matrix(QQ, [[1, 1], [0, 0]])
    b = Matrix(QQ, [[0, -1], [1, 2]])
    assert a * b == Matrix(QQ, [[1, 1], [0, 0]])


def test_transpose_shapes():
    row = Matrix(QQ, [[1, 2]])
    assert row.transpose() == Matrix(QQ, [[1], [2]])


def test_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        Matrix(QQ, [[1, 2]]) * Matrix(QQ, [[1, 2]])


def test_domain_mismatch():
    with pytest.raises(FieldMismatch):
        Matrix(QQ, [[1]]) * Matrix(KX, [[1]])


def test_inverse_of_triangular_shift_matrix():
    m = Matrix(KX, [[poly(QQ, 1, -1), poly(QQ, 0, -1)], [poly(QQ, 0), poly(QQ, 1)]])
    expected = Matrix(
        KX,
        [
            [rf((1,), (1, -1)), rf((0, 1), (1, -1))],
            [rf((0,)), rf((1,))],
        ],
    )
    assert inverse(m) == expected


def test_inverse_with_shared_square_denominator():
    m = Matrix(KX, [[poly(QQ, 1), poly(QQ, 0, 1)], [poly(QQ, 0, -1), poly(QQ, 1, -2)]])
    den = (1, -2, 1)  # (1 - X)^2
    expected = Matrix(
        KX,
        [
            [rf((1, -2), den), rf((0, -1), den)],
            [rf((0, 1), den), rf((1,), den)],
        ],
    )
    assert inverse(m) == expected


def test_inverse_of_identity():
    ident = Matrix.identity(KX, 3)
    assert inverse(ident) == ident


def test_inverse_of_singular_matrix():
    with pytest.raises(SingularMatrix):
        inverse(Matrix(QQ, [[1, 1], [1, 1]]))


def test_resolvent_golden():
    res = resolvent(Matrix(QQ, [[1, 1], [0, 0]]))
    expected = Matrix(
        KX,
        [
            [rf((1,), (1, -1)), rf((0, 1), (1, -1))],
            [rf((0,)), rf((1,))],
        ],
    )
    assert res == expected


def test_resolvent_of_zero_is_identity():
    assert resolvent(Matrix.zero(QQ, 2, 2)) == Matrix.identity(KX, 2)


def test_resolvent_scalar_case():
    res = resolvent(Matrix(QQ, [[3]]))
    assert res == Matrix(KX, [[rf((1,), (1, -3))]])


def test_resolvent_entries_are_valid_streams():
    rng = random.Random(5)
    for _ in range(5):
        n = rng.randint(1, 4)
        m = Matrix(QQ, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        res = resolvent(m)
        for row in res.entries:
            for entry in row:
                assert entry.den.coefficient(0) != 0
                RationalStream.from_fraction(entry)


def test_resolvent_expands_to_matrix_powers():
    rng = random.Random(6)
    for _ in range(6):
        n = rng.randint(1, 4)
        m = Matrix(QQ, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        res = resolvent(m)
        power = Matrix.identity(QQ, n)
        columns = [
            [
                RationalStream.from_fraction(res.entries[i][j]).expand(7)
                for j in range(n)
            ]
            for i in range(n)
        ]
        for t in range(7):
            for i in range(n):
                for j in range(n):
                    assert columns[i][j][t] == power.entries[i][j]
            power = power * m


def test_constant_matrix_commutes_with_expansion():
    # applying a constant matrix pointwise = applying it to the stream vector
    rng = random.Random(7)
    for _ in range(5):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        m = Matrix(QQ, [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
        streams = [random_stream(rng, max_deg=3) for _ in range(cols)]
        prefixes = [StreamPrefix.from_rational(s) for s in streams]
        for t in range(10):
            point = [p.at(t) for p in prefixes]
            image = m.apply(point)
            for i in range(rows):
                acc = QQ.zero()
                for j in range(cols):
                    acc += m.entries[i][j] * prefixes[j].at(t)
                assert image[i] == acc


def test_rank_examples():
    assert rank(Matrix(QQ, [[1, 1], [1, 1]])) == 1
    assert rank(Matrix.zero(QQ, 3, 3)) == 0
    assert rank(Matrix.identity(QQ, 4)) == 4


def test_kernel_examples():
    assert kernel_basis(Matrix.identity(QQ, 3)) == []
    basis = kernel_basis(Matrix(QQ, [[1, 1], [1, 1]]))
    assert basis == [(Fraction(-1), Fraction(1))]
    m = Matrix(QQ, [[1, 1], [1, 1]])
    for vec in basis:
        assert all(v == 0 for v in m.apply(vec))


def test_random_inverse_property():
    rng = random.Random(9)
    produced = 0
    while produced < 10:
        n = rng.randint(1, 4)
        m = Matrix(QQ, [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        try:
            inv = inverse(m)
        except SingularMatrix:
            continue
        assert m * inv == Matrix.identity(QQ, n)
        assert inv * m == Matrix.identity(QQ, n)
        produced += 1


def test_solve_consistency():
    m = Matrix(QQ, [[1, 2], [2, 4]])
    assert solve(m, [1, 2]) == (Fraction(1), Fraction(0))
    assert solve(m, [1, 3]) is None


def test_rref_pivots():
    reduced, pivots = rref(Matrix(QQ, [[0, 1], [1, 1]]))
    assert pivots == (0, 1)
    assert reduced == Matrix.identity(QQ, 2)


def test_elimination_multiplies_only_nonzero_pivot_row_entries(monkeypatch):
    """A zero entry of the pivot row changes no other row, so it is never
    multiplied, and a zero entry of a row is never scaled: the 32 x 16
    observability matrix of a realized pair of degree-8 streams has about as
    many zero as nonzero such entries.  The one elimination loop runs on
    integers over Q, whose products cannot be recorded, so the same matrix
    goes through it over k(X), where every product is a ``Polynomial``'s."""
    first = stream([1, 2, 0, -1, 3, 0, 1, 2], [1, -1, 2, 0, 1, -3, 0, 2, Fraction(1, 2)])
    second = stream([2, -1, 1, 0, 0, 3, 1, -2], [1, 2, -1, 1, 0, 0, -2, 1, 3])
    observed = observability_matrix(realize([first, second]).system)
    assert (observed.rows, observed.cols) == (32, 16)
    matrix = Matrix(KX, observed.entries)
    products = []
    multiply = Polynomial.__mul__

    def counted(a, b):
        products.append((a, b))
        return multiply(a, b)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    reduced, pivots = rref(matrix)
    monkeypatch.undo()
    assert pivots == tuple(range(16))
    assert reduced.entries[:16] == Matrix.identity(KX, 16).entries
    assert products and all(a and b for a, b in products)


def test_empty_dimensions():
    empty = Matrix.zero(QQ, 0, 0)
    assert empty * empty == empty
    tall = Matrix.zero(QQ, 2, 0)
    assert tall.apply(()) == (Fraction(0), Fraction(0))
    assert rank(empty) == 0
    # no rows and no column count: a 0 x 0 matrix
    bare = Matrix(QQ, [])
    assert (bare.rows, bare.cols) == (0, 0) and bare == empty


def test_negative_orbit_length_is_refused():
    m = Matrix(QQ, [[1, 1], [0, 1]])
    assert m.orbit((1, 0), 0) == []
    with pytest.raises(ValueError, match="nonnegative"):
        m.orbit((1, 0), -1)


def test_huge_orbit_length_is_refused_before_a_step(monkeypatch):
    def step(rows, w):
        raise AssertionError("the orbit took a step")

    monkeypatch.setattr(matrix_module, "_sparse_times", step)
    with pytest.raises(CountTooLarge, match="orbit length is above"):
        Matrix(QQ, [[1, 1], [0, 1]]).orbit((1, 0), sys.maxsize + 1)


def test_matrix_text_round_trip():
    m = Matrix(QQ, [[0, -1], [1, 2]])
    assert format_matrix(m) == "0,-1;1,2"
    assert parse_matrix(QQ, "0,-1;1,2") == m
    frac = Matrix(QQ, [[Fraction(1, 2)]])
    assert parse_matrix(QQ, format_matrix(frac)) == frac


def test_resolvent_streams_matches_full_inverse():
    rng = random.Random(13)
    for _ in range(5):
        n = rng.randint(1, 4)
        m = Matrix(QQ, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        vec = [rng.randint(-3, 3) for _ in range(n)]
        res = resolvent(m)
        kx = res.domain
        full = res.apply([kx.coerce(v) for v in vec])
        direct = resolvent_streams(m, vec)
        assert direct == tuple(RationalStream.from_fraction(e) for e in full)
