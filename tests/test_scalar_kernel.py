"""The scalar kernels, ``Field.dot`` (sums of products) and
``Field.recurrence`` (a closed form's coefficients), and the code that calls
them.

Each fast path is checked against a boxed reference from ``util``, the
oracles are checked to work without the kernel, and membership is still
decided at the boundary.
"""

from fractions import Fraction
from itertools import islice
from math import gcd, prod
from types import SimpleNamespace

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from streamcalc import (
    FieldMismatch,
    ShapeMismatch,
    LinearSystem,
    Matrix,
    Polynomial,
    PointedLinearSystem,
    PrimeField,
    QQ,
    RationalFunction,
    RationalStream,
    StreamPrefix,
    realize,
    resolvent_streams,
)
from streamcalc.automaton import WeightedAutomaton
from streamcalc.circuit import CanonicalCircuit
from streamcalc import fields
from streamcalc import matrix as matrix_module
from streamcalc.fields import Field, _tap_scale, over_one_denominator, strip_content
from streamcalc.poly import FractionField
from util import DENOMINATORS, boxed_dot, boxed_expand, boxed_orbit, boxed_power, boxed_product

GF2, GF101, GF_MERSENNE = PrimeField(2), PrimeField(101), PrimeField(2**61 - 1)
FIELDS = (QQ, GF2, GF101, GF_MERSENNE)
KX = FractionField(QQ)

# one draw in three is zero: the kernel skips pairs whose first factor is zero
scalars = st.just(0) | st.integers(-(2**70), 2**70) | st.fractions(max_denominator=50)


def element(field, value):
    """A scalar of ``field`` from an int or a Fraction (whose denominator is
    invertible when reduced mod p, or else its numerator is used)."""
    if field is QQ:
        return Fraction(value)
    value = Fraction(value)
    if value.denominator % field.modulus == 0:
        return field.coerce(value.numerator)
    return field.coerce(value.numerator) / field.coerce(value.denominator)


@st.composite
def rational_functions(draw):
    num = draw(st.just(()) | st.lists(st.integers(-5, 5), max_size=3))
    den = draw(st.lists(st.integers(-5, 5), min_size=1, max_size=3).filter(any))
    return RationalFunction(Polynomial(QQ, num), Polynomial(QQ, den))


@given(st.sampled_from(FIELDS), st.lists(st.tuples(scalars, scalars), max_size=12))
def test_dot_matches_boxed_sum(field, pairs):
    xs = [element(field, x) for x, _ in pairs]
    ys = [element(field, y) for _, y in pairs]
    assert field.dot(xs, ys) == boxed_dot(field, xs, ys)
    # iterators of unequal length pair up to the shorter, as expand passes them
    assert field.dot(xs, reversed(ys[1:])) == boxed_dot(field, xs, ys[:0:-1])


@given(st.lists(st.tuples(rational_functions(), rational_functions()), max_size=5))
def test_dot_over_kx_matches_boxed_sum(pairs):
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    assert KX.dot(xs, ys) == boxed_dot(KX, xs, ys)


@pytest.mark.parametrize("field", FIELDS + (KX,), ids=repr)
def test_empty_dot_is_the_fields_zero(field):
    zero = field.dot((), ())
    assert type(zero) is type(field.zero())
    assert zero == field.zero()
    assert field.dot([field.one()], ()) == field.zero()


@st.composite
def streams(draw):
    field = draw(st.sampled_from(FIELDS))
    num = draw(st.lists(st.integers(-9, 9), max_size=6))
    den = [1] + draw(st.lists(scalars, max_size=6))
    return RationalStream(
        Polynomial(field, num), Polynomial(field, [element(field, c) for c in den])
    )


@given(streams(), st.integers(0, 40))
def test_expand_matches_boxed_recurrence(s, n):
    assert s.expand(n) == boxed_expand(s, n)


@given(st.sampled_from(FIELDS), st.sampled_from(sorted(DENOMINATORS)), st.data(), st.integers(0, 60))
def test_recurrence_matches_boxed_recurrence(field, kind, data, n):
    """Zero and nonzero numerators, of degree below and above deg q, and
    denominators that need no scale, a perfect power or several primes."""
    coefficients = st.builds(Fraction, st.integers(-9, 9), DENOMINATORS[kind])
    num = [element(field, c) for c in data.draw(st.lists(coefficients, max_size=12))]
    den = [field.one()] + [element(field, c) for c in data.draw(st.lists(coefficients, max_size=8))]
    terms = list(islice(field.recurrence(num, den), n))
    quotient = SimpleNamespace(num=Polynomial(field, num), den=Polynomial(field, den))
    assert terms == boxed_expand(quotient, n)
    assert all(type(t) is type(field.one()) for t in terms)


def test_base_field_has_no_recurrence():
    with pytest.raises(NotImplementedError):
        Field().recurrence([], [1])


HALF_ROOT = (Polynomial(QQ, [1, Fraction(-1, 2)]) ** 8).coeffs  # (1 - X/2)^8
COPRIME = tuple(map(Fraction, (1, "-2/3", "5/7", "-1/11", "4/13", "-2/17", "1/19", "-3/23", "1/29")))


def test_tap_scale_takes_the_least_exponent_per_base_element():
    # lcm of the denominators of (1 - X/2)^8 is 256; 2^j q_j is integral
    assert _tap_scale(HALF_ROOT[1:]) == 2
    # q_j = a/p for eight primes: each needs p^1, which rounds 1/j up
    assert _tap_scale(COPRIME[1:]) == 3 * 7 * 11 * 13 * 17 * 19 * 23 * 29
    # 12 = 2^2 3 and 18 = 2 3^2 share factors: the base is {2, 3}
    assert _tap_scale([Fraction(1, 12), Fraction(1, 18)]) == 12
    # 18 = 2 3^2 alone: c^2 needs 2 and 3^2, so 6, where 18 = 18^1 gives 18
    assert _tap_scale([Fraction(1), Fraction(1, 18)]) == 6
    # 101, above the trial-division bound, is left to the coprime base
    assert _tap_scale([Fraction(1), Fraction(1, 18 * 101)]) == 6 * 101
    # 101^2 alone is one base element, taken as 101^2: c^2 needs 101^2, so 101
    assert _tap_scale([Fraction(1), Fraction(1, 101**2)]) == 101


@pytest.mark.parametrize("taps", ([Fraction(1), Fraction(1, 18)], [Fraction(1), Fraction(1, 101**2)]),
                         ids=("18", "101^2"))
def test_recurrence_terms_are_the_boxed_terms_at_the_least_scale(taps):
    num, den = (Fraction(3), Fraction(-1, 7)), (Fraction(1),) + tuple(taps)
    quotient = SimpleNamespace(num=Polynomial(QQ, num), den=Polynomial(QQ, den))
    assert list(islice(QQ.recurrence(num, den), 60)) == boxed_expand(quotient, 60)


@given(st.sampled_from((101, 127, 10**39 + 3)), st.lists(st.just(0) | st.integers(0, 12), max_size=8))
def test_tap_scale_is_least_for_powers_of_one_large_prime(prime, exponents):
    """Each tap 1 / p^e_j: c = p^(max_j ceil(e_j / j)), however the p^e_j fall
    into the coprime base."""
    taps = [Fraction(1, prime**e) for e in exponents]
    assert _tap_scale(taps) == prime ** max((-(-e // j) for j, e in enumerate(exponents, 1)), default=0)


@given(st.sampled_from((101, 101 * 103, 101 * 103**2, 10**39 + 3)), st.integers(1, 12))
def test_perfect_root_undoes_every_power(root, m):
    assert fields._perfect_root(root**m) == root


def taps_over(primes, exponent):
    """Up to 6 taps a / d, zeros included, each d a product of the ``primes``
    to powers 0 .. ``exponent``."""
    powers = st.lists(st.integers(0, exponent), min_size=len(primes), max_size=len(primes))
    denominators = powers.map(lambda es: prod(p**e for p, e in zip(primes, es)))
    return st.lists(st.builds(Fraction, st.integers(-5, 5), denominators), max_size=6)


@given(taps_over((2, 3, 5, 7, 97, 101, 10**39 + 3), 4))
def test_tap_scale_makes_every_tap_integral(taps):
    c = _tap_scale(taps)
    assert all((c**j * t).denominator == 1 for j, t in enumerate(taps, 1))


@given(taps_over((2, 3, 5, 7), 9))
def test_tap_scale_is_least_for_7_smooth_denominators(taps):
    """Dividing c by any of its prime factors leaves some tap fractional."""
    c = _tap_scale(taps)
    for p in (q for q in (2, 3, 5, 7) if c % q == 0):
        assert any(((c // p) ** j * t).denominator != 1 for j, t in enumerate(taps, 1))
    assert c == prod(q ** _exponent(c, q) for q in (2, 3, 5, 7))


def _exponent(n, p):
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


DEGREE_ONE = (Fraction(1), Fraction(-1, 1000))  # 1 - X/1000
# 1 - X/2 - X^2/3: c = 6, where the terms need a 3 only every other step
DEGREE_TWO = (Fraction(1), Fraction(-1, 2), Fraction(-1, 3))


@pytest.mark.parametrize(
    "den",
    (HALF_ROOT, COPRIME, DEGREE_ONE, DEGREE_TWO),
    ids=("half-root", "coprime", "deg-1", "deg-2"),
)
def test_fraction_free_window_stays_near_the_terms_size(monkeypatch, den):
    """The integers w_m = E c^m s_m have about the bits of the reduced terms.
    After the numerator, every max(2 deg q, 8) terms the window is rebuilt
    with the least E for the last deg q terms; from there on each w_m is that
    E times c^k times s_m.  Here each block's integers come from the reduced
    terms alone, as ``over_one_denominator`` of the c^k s_m, and the kernel's
    own integers must match them.  Without the rebuild, the coprime shape's
    window would grow by the 29 bits of c per term, against about 8 bits per
    term of the terms themselves.  At deg q <= 3 the period is 8 terms."""
    num, d, n = (Fraction(3), Fraction(1)), len(den) - 1, 1600
    period = max(2 * d, 8)
    c = _tap_scale(den[1:])
    kernel = []  # (w_m, E c^m) of each term
    monkeypatch.setattr(fields, "_lowest_terms", recorded_fractions(kernel))
    terms = list(islice(QQ.recurrence(num, den), n))
    for start in range(len(num) + period, n, period):
        _, lowest = over_one_denominator(c**k * terms[start - d + k] for k in range(d))
        block = range(start - d, min(start + period, n))
        ints = [lowest * c ** (m - block[0]) * terms[m] for m in block]
        assert all(w.denominator == 1 for w in ints)
        assert ints[d:] == [w for w, _ in kernel[start : block.stop]]
        for i, m in enumerate(block[d:], d):
            if m >= 800:
                bits = max(abs(terms[m].numerator).bit_length(), terms[m].denominator.bit_length())
                assert max(abs(w.numerator).bit_length() for w in ints[i - d + 1 : i + 1]) <= 1.25 * bits


def recorded_fractions(log):
    """``_lowest_terms`` that appends each (w, scale) it is given to ``log``:
    in ``Rationals.recurrence``, each term's integer and scale."""
    lowest_terms = fields._lowest_terms

    def recorded(w, scale, m):
        log.append((w, scale))
        return lowest_terms(w, scale, m)

    return recorded


def counted_strips(rebuilds):
    """``strip_content`` that appends each of its results to ``rebuilds``."""

    def counted(ints, g):
        rebuilds.append(strip_content(ints, g))
        return rebuilds[-1]

    return counted


@pytest.mark.parametrize("d", (1, 2, 3, 4, 5))
def test_window_is_rebuilt_every_max_2d_8_terms(monkeypatch, d):
    """A rebuild is a few big gcds: at deg q <= 3 it waits for 8 terms."""
    rebuilds = []
    monkeypatch.setattr(fields, "strip_content", counted_strips(rebuilds))
    num, den = (Fraction(3), Fraction(1)), (Fraction(1),) + (Fraction(-1, 7),) * d
    # the numerator's 2 terms, then a rebuild before each period's next term
    list(islice(QQ.recurrence(num, den), 2 + 200 + 1))
    assert len(rebuilds) == 200 // max(2 * d, 8)


@given(st.sampled_from(sorted(DENOMINATORS)), st.data())
def test_rebuilt_window_is_the_least_window(kind, data):
    """At each rebuild the strip returns the last deg q terms, newest first,
    times c^(deg q - 1), ..., c^0 over their least common denominator E: that
    is ``over_one_denominator`` of the reduced terms.  The kernel goes on from
    that window: its next term is an integer over E c^(deg q).  Numerators of
    degree up to 11, deg q from 0 to 8."""
    coefficients = st.builds(Fraction, st.integers(-9, 9), DENOMINATORS[kind])
    num = data.draw(st.lists(coefficients, max_size=12))
    den = [Fraction(1)] + data.draw(st.lists(coefficients, max_size=8))
    d, c = len(den) - 1, _tap_scale(den[1:])
    period = max(2 * d, 8)
    rebuilds, kernel = [], []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fields, "strip_content", counted_strips(rebuilds))
        patch.setattr(fields, "_lowest_terms", recorded_fractions(kernel))
        terms = list(islice(QQ.recurrence(num, den), len(num) + 3 * period + 1))
    assert len(rebuilds) == 3
    for r, (window, lowest) in enumerate(rebuilds, 1):
        end = len(num) + r * period  # the index of the next term
        least, scale = over_one_denominator(c**k * t for k, t in enumerate(terms[end - d : end]))
        assert (window[::-1], lowest) == (least, scale)
        assert kernel[end][1] == scale * c**d


# c for every shape of tap scale, with its least prime: a prime, two primes,
# 2^3 5^3, the eight primes of COPRIME, a 40-digit prime
SCALES = {2: 2, 6: 2, 1000: 2, _tap_scale(COPRIME[1:]): 3, 10**39 + 3: 10**39 + 3}


@st.composite
def recurrence_pairs(draw):
    """(w, E c^n, c E) as ``Rationals.recurrence`` passes them: E of every
    kind of ``util.DENOMINATORS``, and w zero, negative, or carrying large
    powers of the primes of c E."""
    c = draw(st.sampled_from(sorted(SCALES)))
    e = draw(DENOMINATORS[draw(st.sampled_from(sorted(DENOMINATORS)))])
    n = draw(st.integers(0, 30))
    w = draw(st.just(0) | st.integers(-(2**200), 2**200))
    w *= c ** draw(st.integers(0, n + 4)) * e ** draw(st.integers(0, 4)) * SCALES[c] ** draw(st.integers(0, 40))
    return w, e * c**n, c * e


@given(recurrence_pairs())
def test_lowest_terms_is_the_checked_fraction(pair):
    """The trusted box is exactly the ``Fraction`` the checked constructor
    makes, and arithmetic on it is ``Fraction``'s."""
    w, scale, m = pair
    term, expected = fields._lowest_terms(w, scale, m), Fraction(w, scale)
    assert type(term) is Fraction
    assert (term.numerator, term.denominator) == (expected.numerator, expected.denominator)
    assert (hash(term), repr(term)) == (hash(expected), repr(expected))
    assert (term + 1, term * term, term - expected, term / 7) == (
        expected + 1, expected * expected, 0, expected / 7)


def counted_gcds(counts):
    """``math.gcd`` that adds one to ``counts[-1]`` per call."""

    def counted(*args):
        counts[-1] += 1
        return gcd(*args)

    return counted


def test_a_zero_term_takes_no_gcd(monkeypatch):
    counts = [0]
    monkeypatch.setattr(fields, "gcd", counted_gcds(counts))
    zero = fields._lowest_terms(0, 2**300, 2)
    assert (zero.numerator, zero.denominator, counts) == (0, 1, [0])


def test_a_large_shared_power_takes_logarithmically_many_gcds(monkeypatch):
    """2^200 shared by w and the scale: squaring reaches it in 8 steps, where
    a pass per factor of m would take 200."""
    counts = [0]
    monkeypatch.setattr(fields, "gcd", counted_gcds(counts))
    term = fields._lowest_terms(3 * 2**200, 2**300, 2)
    assert (term.numerator, term.denominator) == (3, 2**100)
    # gcd(w, m) and gcd(h, scale), then two a step: h = 2^2, 2^4, ..., 2^128,
    # 2^200, and once more to see it stay
    assert counts[0] <= 20


@pytest.mark.parametrize(
    "num, den",
    (((Fraction(1),), (Fraction(1), Fraction(0), Fraction(-1, 4))), ((Fraction(3), Fraction(1)), HALF_ROOT),
     ((Fraction(3), Fraction(1)), COPRIME)),
    ids=("1/(1-X^2/4)", "half-root", "coprime"),
)
def test_each_term_takes_a_bounded_number_of_gcds(monkeypatch, num, den):
    """At most 16 gcds per term over 1600 terms, the window's rebuild
    included (14 at most here); a term that divided out one factor per pass
    took up to 43 on the coprime shape."""
    counts = [0]
    monkeypatch.setattr(fields, "gcd", counted_gcds(counts))
    terms = QQ.recurrence(num, den)
    for _ in range(1600):
        next(terms)
        counts.append(0)
    assert max(counts) <= 16


@st.composite
def square_matrices(draw, field=None, size=None):
    field = field or draw(st.sampled_from(FIELDS))
    n = draw(st.integers(0, 5)) if size is None else size
    rows = draw(st.lists(st.lists(scalars, min_size=n, max_size=n), min_size=n, max_size=n))
    return Matrix(field, [[element(field, c) for c in row] for row in rows], cols=n)


# scalars with 40-digit denominators too: the integer orbit over Q puts the
# matrix and the vector over one denominator each
wide_scalars = scalars | st.builds(Fraction, st.integers(-9, 9), st.just(10**39 + 3))


@given(st.sampled_from(FIELDS), st.integers(0, 5), st.data(), st.integers(0, 12))
def test_orbit_matches_boxed_mat_vec(field, n, data, steps):
    """Zero rows, all-zero vectors and 40-digit denominators included."""
    rows = data.draw(st.lists(st.lists(wide_scalars, min_size=n, max_size=n), min_size=n, max_size=n))
    for i in data.draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n)):
        rows[i] = [0] * n
    matrix = Matrix(field, [[element(field, c) for c in row] for row in rows], cols=n)
    vector = data.draw(st.just([0] * n) | st.lists(wide_scalars, min_size=n, max_size=n))
    vector = [element(field, v) for v in vector]
    assert matrix.orbit(vector, steps) == boxed_orbit(matrix, vector, steps)
    assert matrix.apply(vector) == boxed_orbit(matrix, vector, 2)[1]


@pytest.mark.parametrize("field", (QQ, GF101, GF_MERSENNE), ids=repr)
def test_companion_orbit_multiplies_only_the_nonzero_entries(field, monkeypatch):
    """Over Q and GF(p) the orbit multiplies the integers of its sparse rows of dF."""
    den = Polynomial(field, [element(field, c) for c in (1, 0, -3, 0, 0, 0, 0, 5, 0, Fraction(1, 2))])
    pointed = realize([RationalStream(Polynomial(field, [2, 1]), den)])
    transition, steps = pointed.system.dynamics, 12
    nonzero = sum(1 for row in transition.entries for e in row if e)
    products = []

    def counted(a, b):
        products.append((a, b))
        return a * b

    monkeypatch.setattr(matrix_module, "mul", counted)
    transition.orbit(pointed.initial, steps)
    monkeypatch.undo()
    # nnz(F) integer products per step, where a dense mat-vec makes n^2
    assert all(type(a) is type(b) is int for a, b in products)
    assert len(products) == (steps - 1) * nonzero < (steps - 1) * transition.rows**2


@given(st.sampled_from(FIELDS), st.integers(0, 4), st.integers(0, 4), st.data())
def test_matrix_product_matches_boxed_product(field, n, m, data):
    a = data.draw(square_matrices(field, n))
    rows = data.draw(st.lists(st.lists(scalars, min_size=m, max_size=m), min_size=n, max_size=n))
    b = Matrix(field, [[element(field, c) for c in row] for row in rows], cols=m)
    assert a * b == boxed_product(a, b)
    assert a * a == boxed_product(a, a)


@given(
    st.sampled_from((QQ, PrimeField(7), GF101, GF_MERSENNE)),
    st.lists(scalars, min_size=2, max_size=5),
    st.integers(0, 12),
)
def test_power_on_millers_branch_matches_repeated_product(field, coeffs, k):
    p = Polynomial(field, [element(field, c) for c in coeffs])
    # the branch __pow__ takes Miller's recurrence on
    assume(p.degree > 0 and p.coefficient(0) != field.zero())
    assume(field.characteristic == 0 or k * p.degree < field.characteristic)
    assert p**k == boxed_power(p, k)


@given(st.sampled_from((QQ, PrimeField(7), GF101, GF_MERSENNE)), st.sampled_from(("shifted", "constant")),
       st.integers(1, 3), st.lists(scalars, min_size=1, max_size=3), st.data())
def test_power_by_shift_or_of_a_constant_matches_repeated_product(field, shape, v, coeffs, data):
    """f = X^v g with g(0) != 0, and constant f: the branches __pow__ takes
    before Miller's and the Frobenius split, k >= char included."""
    g = [element(field, c) for c in coeffs]
    assume(g[0] != field.zero())
    p = Polynomial(field, [field.zero()] * v + g if shape == "shifted" else g[:1])
    char = field.characteristic
    around = (char - 1, char, char + 1) if 0 < char < 1000 else ()
    k = data.draw(st.integers(0, 12) | st.sampled_from(around) if around else st.integers(0, 12))
    assert p**k == boxed_power(p, k)


# scalars with every kind of denominator of util.DENOMINATORS
def rationals(kind):
    return st.just(Fraction(0)) | st.builds(Fraction, st.integers(-9, 9), DENOMINATORS[kind])


@given(st.sampled_from(sorted(DENOMINATORS)), st.integers(0, 4), st.integers(2, 3), st.data())
def test_orbit_readout_matches_outputs_of_the_boxed_orbit(kind, n, m, data):
    """Over Q the outputs H M^t v are read off the orbit's integers: equal to H
    applied to each boxed term, at 0, 1, 2n and other steps, with zero rows
    of H and dimension 0."""
    entries = rationals(kind)
    square = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    rows = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=m, max_size=m))
    for i in data.draw(st.sets(st.integers(0, m - 1), max_size=m)):
        rows[i] = [Fraction(0)] * n
    matrix, output = Matrix(QQ, square, cols=n), Matrix(QQ, rows, cols=n)
    vector = data.draw(st.lists(entries, min_size=n, max_size=n))
    steps = data.draw(st.sampled_from((0, 1, 2 * n)) | st.integers(0, 2 * n + 3))
    expected = [output.apply(x) for x in boxed_orbit(matrix, vector, steps)]
    assert matrix.orbit(vector, steps, output) == expected


def test_orbit_readout_needs_as_many_columns():
    with pytest.raises(ShapeMismatch):
        Matrix(QQ, [[1, 2], [3, 4]]).orbit((1, 2), 3, Matrix(QQ, [[1, 2, 3]]))


@pytest.mark.parametrize("steps", (0, 1, 3))
def test_orbit_over_k_of_x_raises_field_mismatch(steps):
    """k(X) has no integer form, so the one integer orbit refuses it."""
    kx = FractionField(QQ)
    with pytest.raises(FieldMismatch):
        Matrix(kx, [[1, 2], [3, 4]]).orbit((1, 0), steps)


@pytest.mark.parametrize("field", (QQ, GF101), ids=repr)
def test_oracles_run_without_the_kernel(field, monkeypatch):
    """StreamPrefix, path_sum, Netlist.simulate and the k(X) resolvent keep
    their own loops, so they stay independent checks of the kernels."""
    pa, pb = Polynomial(field, [1, -1, 2]), Polynomial(field, [3, 0, 1, 5])
    a = StreamPrefix.from_coefficients(field, pa.coeffs)
    b = StreamPrefix.from_coefficients(field, pb.coeffs)
    transition = Matrix(field, [[0, -1], [1, 2]])
    pointed = PointedLinearSystem(LinearSystem(transition, Matrix(field, [[1, 2]])), (1, 0))
    automaton = WeightedAutomaton.from_linear_system(pointed)
    netlist = CanonicalCircuit.from_linear_system(pointed).to_netlist()
    # the answers, computed through the kernel before it is taken away
    product = RationalStream.from_polynomial(pa * pa * pb).expand(8)
    inverse = RationalStream(Polynomial.one(field), pa).expand(8)
    outputs = [out[0] for out in pointed.step_outputs(8)]
    orbit = transition.orbit((1, 0), 4)
    states = tuple(RationalStream.from_sequence(field, [v[i] for v in orbit]) for i in range(2))

    def refuse(self, xs, ys):
        raise AssertionError("the dot kernel was called")

    def refuse_recurrence(self, num, den):
        raise AssertionError("the recurrence kernel was called")

    for descriptor in (Field, PrimeField, FractionField):
        monkeypatch.setattr(descriptor, "dot", refuse)
    for descriptor in (Field, type(QQ), PrimeField):
        monkeypatch.setattr(descriptor, "recurrence", refuse_recurrence)
    with pytest.raises(AssertionError, match="dot kernel"):
        transition.apply((1, 0))  # a mat-vec reaches dot over every field
    with pytest.raises(AssertionError, match="recurrence kernel"):
        RationalStream(Polynomial.one(field), pa).expand(8)
    assert (a * a * b).take(8) == product
    assert a.inverse().take(8) == inverse
    assert [automaton.path_sum(0, k) for k in range(8)] == outputs
    assert netlist.simulate(8) == outputs
    assert resolvent_streams(transition, (1, 0)) == states


@pytest.mark.parametrize(
    "matrix, vector",
    [
        (Matrix(GF101, [[1, 2], [3, 4]]), [PrimeField(7).one(), PrimeField(7).one()]),
        (Matrix(GF101, [[1, 2], [3, 4]]), [GF2.one(), 1]),
        (Matrix(GF101, [[1, 2], [3, 4]]), [Fraction(1, 2), 1]),
        (Matrix(QQ, [[1, 2], [3, 4]]), [GF101.one(), 1]),
    ],
    ids=["gf7-in-gf101", "gf2-in-gf101", "fraction-in-gf101", "gf101-in-q"],
)
def test_foreign_vectors_raise_field_mismatch(matrix, vector):
    with pytest.raises(FieldMismatch):
        matrix.apply(vector)
    with pytest.raises(FieldMismatch):
        matrix.orbit(vector, 3)
