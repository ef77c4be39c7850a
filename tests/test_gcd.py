"""``Polynomial.gcd``, which is ``Field.polynomial_gcd``, against the boxed
Euclid of ``tests/util.py``.

Over GF(p) the kernel is Euclid on int residues mod p.  Over Q it first
tries a certificate: a residue gcd of degree 0 mod a prime that divides
neither cleared leading coefficient proves the gcd is 1.  Every other pair
runs the same loop on integers, the primitive PRS.  The explicit pairs
below are the ones where trusting a residue gcd would be wrong.
"""

import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcalc import Polynomial, PrimeField, QQ, RationalFunction, RationalStream, realize
from streamcalc.errors import NotInvertibleAtZero
from streamcalc.expr import evaluate_text
from streamcalc.fields import CERTIFICATE_PRIME
from util import boxed_gcd, poly

MERSENNE = 2**61 - 1
FIELDS = (QQ, PrimeField(2), PrimeField(101), PrimeField(MERSENNE))
SRC = Path(__file__).resolve().parent.parent / "src"


def coefficients(field):
    if field is QQ:
        # small ones over small denominators, and integers near the primes
        small = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 1, 2, 3, 7)))
        return st.one_of(small, st.sampled_from((MERSENNE, -MERSENNE, MERSENNE + 1, 3 * MERSENNE)))
    return st.integers(0, field.modulus - 1)


@st.composite
def pairs(draw):
    """(a, b) over one field: each side zero, a constant, up to degree 7 or
    of degree 11-15, and with a planted common factor of degree 1-5 in most
    draws."""
    field = draw(st.sampled_from(FIELDS))
    coefficient = coefficients(field)

    def side():
        length = draw(st.one_of(st.sampled_from((0, 1, 2, 3, 5, 8)), st.integers(12, 16)))
        return Polynomial(field, draw(st.lists(coefficient, min_size=length, max_size=length)))

    a, b = side(), side()
    if draw(st.booleans()):
        factor = Polynomial(field, draw(st.lists(coefficient, min_size=2, max_size=6)))
        a, b = a * factor, b * factor
    return a, b


@settings(max_examples=300)
@given(pairs())
def test_gcd_is_the_boxed_euclid(pair):
    a, b = pair
    assert a.gcd(b) == boxed_gcd(a, b)
    assert b.gcd(a) == boxed_gcd(b, a)


def reduced(kind, num, den):
    """num/den reduced by the boxed gcd and scaled by ``kind``'s normalizer."""
    g = boxed_gcd(num, den)
    num, den = num // g, den // g
    unit = den.leading if kind is RationalFunction else den.coefficient(0)
    inverse = num.field.inv(unit)
    return num.scale(inverse), den.scale(inverse)


@settings(max_examples=200)
@given(pairs(), st.sampled_from((RationalFunction, RationalStream)))
def test_reduced_quotients_are_the_boxed_reduction(pair, kind):
    num, den = pair
    try:
        q = kind(num, den)
    except (ZeroDivisionError, NotInvertibleAtZero):
        return
    if num:
        assert (q.num, q.den) == reduced(kind, num, den)
    else:
        assert (q.num, q.den) == (num, Polynomial.one(num.field))


def test_a_prime_that_divides_a_leading_coefficient_is_passed_over():
    """a = X + 1/P clears to P X + 1, a constant mod P, so the residue gcd
    mod P has degree 0 although a divides b: the certificate must prove
    nothing, and the gcd is a."""
    assert CERTIFICATE_PRIME == MERSENNE
    for lead in (MERSENNE, 3 * MERSENNE, MERSENNE**2):
        a = poly(QQ, Fraction(1, lead), 1)
        b = a * poly(QQ, 5, 1)
        assert QQ.polynomial_gcd(a.coeffs, b.coeffs) == list(boxed_gcd(a, b).coeffs)
        assert a.gcd(b) == b.gcd(a) == a == boxed_gcd(a, b)


def test_pairs_equal_mod_the_prime_are_not_certified():
    """X + 1 and X + 1 + P are coprime over Q and equal mod P, so the residue
    gcd has degree 1: the certificate proves nothing, and the gcd is 1."""
    a, b = poly(QQ, 1, 1), poly(QQ, 1 + MERSENNE, 1)
    assert QQ.polynomial_gcd(a.coeffs, b.coeffs) == list(boxed_gcd(a, b).coeffs)
    assert a.gcd(b) == b.gcd(a) == Polynomial.one(QQ) == boxed_gcd(a, b)


def test_a_certified_pair_runs_no_euclid(monkeypatch):
    """No pair divides a polynomial or makes one monic: coprime pairs over Q
    end at the certificate, every other pair over Q runs the integer loop,
    and every pair over GF(p) the residue loop."""
    factor = poly(QQ, 1, 1)
    cases = [
        (poly(QQ, 1, 1, 1) ** 40, poly(QQ, 1, -1) ** 40),
        (poly(QQ, 3, Fraction(1, 2), 1) * factor, poly(QQ, 2, 5) * factor),
        (poly(QQ, Fraction(1, 3), 2), Polynomial.zero(QQ)),
        (Polynomial.zero(QQ), poly(QQ, 4, 0, 7)),
        (poly(QQ, 1, MERSENNE), poly(QQ, 1, MERSENNE) * poly(QQ, 2, 1)),
        (poly(QQ, 1, 3 * MERSENNE), poly(QQ, 2, 1)),
    ]
    for field in FIELDS[1:]:
        factor = poly(field, 1, 1)
        cases.append((poly(field, 3, 1, 1) * factor, poly(field, 2, 5) * factor))
    expected = [boxed_gcd(a, b) for a, b in cases]

    def forbidden(*args):
        raise AssertionError("Euclid on field elements")

    monkeypatch.setattr(Polynomial, "__divmod__", forbidden)
    monkeypatch.setattr(Polynomial, "monic", forbidden)
    assert expected[0] == Polynomial.one(QQ)
    assert [a.gcd(b) for a, b in cases] == expected


def test_a_constant_operand_runs_no_euclid(monkeypatch):
    """A nonzero constant is a unit: its gcd with any polynomial is 1, given
    before the certificate, so 1/(1 - X/1000) reduces with no ``_euclid``
    call, and every constant pair gives the boxed Euclid's answer."""
    from streamcalc import fields

    cases = [(poly(field, c), other) for field in FIELDS
             for c in (1, 3, Fraction(1, 1000) if field is QQ else 5)
             for other in (Polynomial.zero(field), poly(field, 7), poly(field, 1, 2, 3))]
    cases += [(b, a) for a, b in cases]
    expected = [boxed_gcd(a, b) for a, b in cases]
    calls = []
    euclid = fields._euclid

    def counted(a, b, p):
        calls.append((a, b, p))
        return euclid(a, b, p)

    monkeypatch.setattr(fields, "_euclid", counted)
    assert [a.gcd(b) for a, b in cases] == expected
    s = evaluate_text("1/(1-X/1000)")
    assert s == RationalStream(poly(QQ, 1), poly(QQ, 1, Fraction(-1, 1000)))
    assert calls == []


def test_a_planted_factor_quotient_is_fast():
    """((1+X+X^2)^k (1+X))/((1-X)^k (1+X)) over Q at k = 130: the gcd is
    1+X, so the certificate proves nothing.  On a 2-vCPU host Euclid on
    Fractions takes about 10 s there, and the primitive PRS about 2 s.  The
    factor cancels, so the first terms are those of the coprime quotient."""
    k = 130
    start = time.perf_counter()
    planted = evaluate_text(f"((1+X+X^2)^{k}*(1+X))/((1-X)^{k}*(1+X))", QQ).expand(3)
    assert time.perf_counter() - start < 6
    assert planted == evaluate_text(f"(1+X+X^2)^{k}/(1-X)^{k}", QQ).expand(3)


def run_cli(*argv):
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "streamcalc", *argv],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    return done, time.perf_counter() - start


@pytest.mark.parametrize("k", [60, 300])
def test_coprime_quotient_of_high_powers_is_fast(k):
    """(1+X+X^2)^k/(1-X)^k over Q: Euclid on Fractions took 30 s at k = 160
    and more than a minute at k = 300; the certificate takes a fraction of a
    second.  Its first coefficients are those of the product of the two
    series, and its closed form is the quotient as written."""
    done, seconds = run_cli("eval", f"(1+X+X^2)^{k}/(1-X)^{k}", "--n", "3")
    assert done.returncode == 0, done.stderr
    assert seconds < 5
    # (1 + kX + (k + k(k-1)/2) X^2)(1 + kX + k(k+1)/2 X^2) up to X^2
    assert done.stdout.splitlines() == [
        f"1, {2 * k}, {2 * k * k + k}",
        str(RationalStream._make(poly(QQ, 1, 1, 1) ** k, poly(QQ, 1, -1) ** k)),
    ]


def test_two_coprime_streams_realize_fast():
    """realize of two streams whose annihilators are coprime, dimension 300:
    the lcm's gcd took 13 s over Q before the certificate."""
    first = evaluate_text("1/(1-X-2*X^3)^60")
    second = evaluate_text("(1+X)/(1-3*X^2)^60")
    start = time.perf_counter()
    pointed = realize([first, second])
    assert time.perf_counter() - start < 5
    assert pointed.dim == 300
    outputs = pointed.step_outputs(8)
    assert [o[0] for o in outputs] == first.expand(8)
    assert [o[1] for o in outputs] == second.expand(8)
