"""Rational streams in closed form: reduced quotients p/q with q(0) = 1.

A rational stream is the quotient of two polynomial streams whose denominator
is invertible at 0: the element of k(X) that is defined at 0.  It is the one
reduced quotient of :class:`~streamcalc.poly.Quotient`, with the three hooks
set for streams: a denominator must have q(0) != 0
(:class:`NotInvertibleAtZero` otherwise), a divisor must have initial value
p(0) != 0, and q(0) is the coefficient scaled to 1.  That normalization makes
the representation unique, so equality is structural, the coefficient
expansion is a direct linear recurrence, and the stream derivative has a
closed form that keeps the denominator fixed.

:func:`berlekamp_massey` is the one recurrence kernel: every finite
representation reaches its closed form by computing enough coefficients over
k and handing them to :meth:`RationalStream.from_sequence`.
"""

from __future__ import annotations

from operator import mul
from typing import List, Sequence, Tuple

from .errors import FieldMismatch, NotInvertibleAtZero
from .fields import Field
from .poly import Polynomial, Quotient, RationalFunction


class RationalStream(Quotient):
    """Rational stream: reduced quotient p/q of polynomials with q(0) = 1."""

    __slots__ = ()

    @staticmethod
    def _check_denominator(den: Polynomial):
        if den.constant_term == den.field.zero():
            raise NotInvertibleAtZero(
                "denominator has initial value 0 and therefore no inverse"
            )

    @staticmethod
    def _check_divisor(divisor: "RationalStream"):
        if divisor.num.constant_term == divisor.field.zero():
            raise NotInvertibleAtZero(
                "divisor has initial value 0 and therefore no inverse"
            )

    @staticmethod
    def _normalizer(den: Polynomial):
        return den.constant_term

    def _check(self, other: "RationalStream"):
        if other.field != self.field:
            raise FieldMismatch("streams over different fields")

    @classmethod
    def from_sequence(cls, field: Field, terms: Sequence) -> "RationalStream":
        """The rational stream whose first coefficients are ``terms``.

        Precondition: the stream has linear complexity at most
        ``len(terms) / 2``, i.e. max(deg q, deg p + 1) <= len(terms) / 2 for
        its reduced form p/q.  Then Berlekamp-Massey's connection polynomial C
        is q, the numerator is (C * S) mod X^L for the prefix S, and the result
        is exact.  Without the precondition the result merely agrees with
        ``terms``.  Either way it is reduced.
        """
        terms = [field.to_raw(t) for t in terms]
        connection, length = _berlekamp_massey(field, terms)
        reduce = field.reduce
        num = [
            reduce(sum(map(mul, connection[: k + 1], reversed(terms[: k + 1]))))
            for k in range(length)
        ]
        # a common factor of num and C would give a shorter recurrence; C(0) = 1
        return cls._make(_polynomial(field, num), _polynomial(field, connection))

    @classmethod
    def from_fraction(cls, rf: RationalFunction):
        """Reinterpret an element of k(X); requires den(0) != 0."""
        return cls(rf.num, rf.den)

    def inverse(self):
        return RationalStream.one(self.field) / self

    def scale(self, c):
        # a nonzero c changes no common factor and keeps den(0) = 1
        if self.field.coerce(c) == self.field.zero():
            return RationalStream.zero(self.field)
        return RationalStream._make(self.num.scale(c), self.den)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative stream power; use inverse() explicitly")
        # p^k / q^k stays reduced and q^k(0) = 1, so no gcd is needed
        return RationalStream._make(self.num ** k, self.den ** k)

    def initial_value(self):
        """The head coefficient; num(0) since the denominator is 1 at 0."""
        return self.num.constant_term

    def derivative(self) -> "RationalStream":
        """Stream derivative (tail), computed symbolically.

        Subtracting the initial value kills the numerator's constant term, so
        the difference is X times a polynomial; dividing that X out yields the
        derivative over the *same* denominator.
        """
        shifted = self.num - self.den.scale(self.initial_value())
        # gcd(p - p0 q, q) = gcd(p, q) = 1 and X does not divide q
        return RationalStream._make(shifted.shifted_down(), self.den)

    def iterated_derivative(self, k: int) -> "RationalStream":
        s = self
        for _ in range(k):
            s = s.derivative()
        return s

    def expand(self, n: int) -> List:
        """First ``n`` coefficients via the recurrence induced by the denominator."""
        zero = self.field.zero()
        den = self.den.coeffs
        out: List = []
        for i in range(n):
            acc = self.num.coefficient(i)
            for j in range(1, min(i, len(den) - 1) + 1):
                acc = acc - den[j] * out[i - j]
            out.append(acc)
        return out

    def coefficient(self, i: int):
        return self.expand(i + 1)[i]


def coordinate_streams(field: Field, vectors: Sequence[Tuple], width: int):
    """``from_sequence`` of each of the ``width`` coordinates of ``vectors``."""
    return tuple(
        RationalStream.from_sequence(field, [v[i] for v in vectors]) for i in range(width)
    )


def berlekamp_massey(field: Field, terms: Sequence) -> Tuple[Polynomial, int]:
    """Shortest linear recurrence generating ``terms``: (C, L) with C(0) = 1.

    C = 1 + c_1 X + ... + c_L X^L (deg C may fall short of L) satisfies
    sum_{i=0..L} c_i * terms[n-i] = 0 for every L <= n < len(terms), and L is
    the least length with that property.  Uses O(len(terms) * L) operations
    on the field's raw values and no polynomial arithmetic.
    """
    connection, length = _berlekamp_massey(field, [field.to_raw(t) for t in terms])
    return _polynomial(field, connection), length


def _berlekamp_massey(field: Field, terms: List) -> Tuple[List, int]:
    # the kernel of berlekamp_massey on raw values, C as a raw coefficient list
    reduce, raw_inv = field.reduce, field.raw_inv
    zero, one = field.to_raw(field.zero()), field.to_raw(field.one())
    current = [one]  # C
    previous = [one]  # C before the last change of length
    length, gap, scale = 0, 1, one  # scale: 1 / discrepancy at that change
    for n, term in enumerate(terms):
        # deg C <= L <= n, so the window terms[n+1-len(C) .. n-1] exists
        window = terms[n + 1 - len(current) : n]
        discrepancy = reduce(sum(map(mul, current[1:], reversed(window)), term))
        if not discrepancy:
            gap += 1
            continue
        factor = reduce(discrepancy * scale)
        updated = current + [zero] * (gap + len(previous) - len(current))
        for i, b in enumerate(previous, gap):
            updated[i] = reduce(updated[i] - factor * b)
        while not updated[-1]:
            updated.pop()
        if 2 * length <= n:
            previous, length, scale, gap = current, n + 1 - length, raw_inv(discrepancy), 1
        else:
            gap += 1
        current = updated
    return current, length


def _polynomial(field: Field, raw: List) -> Polynomial:
    return Polynomial._make(field, [field.from_raw(r) for r in raw])


def valuation(s: RationalStream) -> int:
    """Index of the first nonzero coefficient; -1 for the zero stream.

    Equals the X-adic valuation of the numerator because den(0) = 1.
    """
    if s.is_zero:
        return -1
    zero = s.field.zero()
    for i, c in enumerate(s.num.coeffs):
        if c != zero:
            return i
    raise AssertionError("nonzero numerator without nonzero coefficient")
