"""Rational streams in closed form: reduced quotients p/q with q(0) = 1.

A rational stream is the quotient of two polynomial streams whose denominator
is invertible at 0: the element of k(X) that is defined at 0.  It is the one
reduced quotient of :class:`~streamcalc.poly.Quotient`, with the three hooks
set for streams: a denominator must have q(0) != 0
(:class:`NotInvertibleAtZero` otherwise), a divisor must have initial value
p(0) != 0, and q(0) is the coefficient scaled to 1; each hook reads
coefficient 0 by ``Polynomial.coefficient``.  That normalization makes
the representation unique, so equality is structural, the coefficient
expansion is a direct linear recurrence, and the stream derivative has a
closed form that keeps the denominator fixed.

``RationalStream._terms`` is the one forward recurrence, from a closed form to
its coefficients, run by the field's kernel ``Field.recurrence``;
``from_sequence`` is the one way back, from enough coefficients over k to the
closed form: ``from_integers`` on the coefficients' integer form, through
the field's kernel ``Field.integer_berlekamp_massey`` (``analysis`` calls
``Field.berlekamp_massey`` for the linear complexity L alone).
``CoordinateStreams`` holds the ``from_integers`` fit of each coordinate of
a run of vectors in the integer form of ``Matrix.integer_orbit``, fitted
the first time it is read: the behaviours of systems and automata, with no
term boxed between the orbit and the fit.  Both kernels are
fraction-free: the forward kernel runs on integers over Q and on residues
over GF(p); the backward kernel is one loop for every field, on integer
multiples of C in the field's integer form (``shrink`` strips the content
over Q and reduces mod p over GF(p)), so C's coefficients keep the bits of C
itself, not of a tower of ``Fraction``s.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from itertools import islice
from math import lcm
from typing import Iterator, List, Tuple

from .errors import NotInvertibleAtZero, check_count
from .fields import Field
from .poly import Polynomial, Quotient, RationalFunction


class RationalStream(Quotient):
    """Rational stream: reduced quotient p/q of polynomials with q(0) = 1."""

    __slots__ = ()

    @staticmethod
    def _check_denominator(den: Polynomial):
        if not den.coefficient(0):
            raise NotInvertibleAtZero(
                "denominator has initial value 0 and therefore no inverse"
            )

    @staticmethod
    def _check_divisor(divisor: "RationalStream"):
        if not divisor.num.coefficient(0):
            raise NotInvertibleAtZero(
                "divisor has initial value 0 and therefore no inverse"
            )

    @staticmethod
    def _normalizer(den: Polynomial):
        return den.coefficient(0)

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
        return cls.from_integers(field, *field.integers(terms))

    @classmethod
    def from_integers(cls, field: Field, ints: Sequence[int], scale: int) -> "RationalStream":
        """``from_sequence`` of the terms ints[i] / scale in the field's
        integer form, scale nonzero in the field, with no term boxed."""
        connection, _, num = field.integer_berlekamp_massey(ints, scale, numerator=True)
        # a common factor of num and C would give a shorter recurrence; C(0) = 1
        return cls._make(Polynomial._make(field, num), Polynomial._make(field, connection))

    @classmethod
    def from_fraction(cls, rf: RationalFunction):
        """Reinterpret an element of k(X); requires den(0) != 0."""
        return cls(rf.num, rf.den)

    def inverse(self):
        return RationalStream.one(self.field) / self

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative stream power; use inverse() explicitly")
        # p^k / q^k stays reduced and q^k(0) = 1, so no gcd is needed; a
        # constant q is exactly 1, its own power
        den = self.den if self.den.degree == 0 else self.den ** k
        return RationalStream._make(self.num ** k, den)

    def initial_value(self):
        """The head coefficient; num(0) since the denominator is 1 at 0."""
        return self.num.coefficient(0)

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
        """s^(k) = ((p - S_k q) / X^k) / q, read off the last deg q of k steps
        of ``_terms``: numerator coefficient j is p_(j+k) - sum_(i>j) q_i
        s_(k+j-i), and gcd(p - S_k q, q) = gcd(p, q) = 1."""
        check_count(k, "derivative order")
        prefix = deque(islice(self._terms(), k), maxlen=self.den.degree)
        dot, num, taps = self.field.dot, self.num, self.den.coeffs[1:]
        length = max(len(taps), num.degree - k + 1)
        shifted = [num.coefficient(j + k) - dot(taps[j:], reversed(prefix)) for j in range(length)]
        return RationalStream._make(Polynomial._make(self.field, shifted), self.den)

    def expand(self, n: int) -> List:
        """The first ``n`` coefficients."""
        check_count(n, "number of coefficients")
        return list(islice(self._terms(), n))

    def coefficient(self, i: int):
        check_count(i, "coefficient index")
        return next(islice(self._terms(), i, None))

    def _terms(self) -> Iterator:
        """s_0, s_1, ... by s_i = p_i - sum_{j=1..deg q} q_j s_(i-j): the one
        place a closed form's coefficients are made, by the field's kernel."""
        return self.field.recurrence(self.num.coeffs, self.den.coeffs)


class CoordinateStreams(Sequence):
    """The closed forms of the ``width`` coordinates of ``vectors``, each by
    ``from_integers``: a read-only sequence that fits stream i the first time
    it is read and keeps it.  The vectors come in the integer form of
    ``Matrix.integer_orbit``, each (ints, g); coordinate i is fitted on the
    ints[i] put over the lcm of the g's, so no term is boxed.  Reading one
    stream of n fits one; a caller that reads every stream does the same
    work as fitting them all at once.  It equals the tuple of its streams,
    either way round, and hashes as that tuple does."""

    __slots__ = ("_field", "_vectors", "_scale", "_streams")

    def __init__(self, field: Field, vectors: Sequence[Tuple[List[int], int]], width: int):
        self._scale = lcm(*(g for _, g in vectors))
        self._field, self._streams = field, [None] * width
        # each vector's ints with the factor that puts them over the lcm
        self._vectors = [(ints, self._scale // g) for ints, g in vectors]

    def __len__(self):
        return len(self._streams)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(len(self))[i])
        i = range(len(self))[i]  # IndexError and TypeError as a tuple raises them
        if self._streams[i] is None:
            ints = [v[i] * m if m != 1 else v[i] for v, m in self._vectors]
            self._streams[i] = RationalStream.from_integers(self._field, ints, self._scale)
        return self._streams[i]

    def __eq__(self, other):
        if isinstance(other, (tuple, CoordinateStreams)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return repr(tuple(self))


def valuation(s: RationalStream) -> int:
    """Index of the first nonzero coefficient; -1 for the zero stream.

    Equals the X-adic valuation of the numerator because den(0) = 1.
    """
    return next((i for i, c in enumerate(s.num.coeffs) if c), -1)
