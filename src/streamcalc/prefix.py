"""Representation-agnostic prefix streams: memoized on-demand coefficients.

A :class:`StreamPrefix` produces coefficients lazily, calling its producer
once per index in increasing order, and caches everything produced so far, so
re-querying an index always yields the identical element.  Pointwise sum,
convolution product and the multiplicative inverse are defined directly on
coefficients; these serve as the representation-independent substrate that
every closed form must agree with.  No equality is offered here (undecidable
for arbitrary producers).  ``from_rational`` draws a closed form's ``_terms``.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from .errors import FieldMismatch, ZeroInitialValue
from .fields import Field


class StreamPrefix:
    def __init__(self, field: Field, producer: Callable[[int], object]):
        self.field = field
        self._producer = producer
        self._cache: List = []

    def at(self, i: int):
        if i < 0:
            raise ValueError("stream index must be nonnegative")
        # each index once, in order: producers may read back smaller indices
        while len(self._cache) <= i:
            self._cache.append(self._producer(len(self._cache)))
        return self._cache[i]

    def take(self, n: int) -> List:
        if n < 0:
            raise ValueError("number of coefficients must be nonnegative")
        return [self.at(i) for i in range(n)]

    @classmethod
    def from_coefficients(cls, field, coefficients: Sequence):
        """Finite coefficient list, implicitly extended with zeros."""
        fixed = [field.coerce(c) for c in coefficients]
        zero = field.zero()
        return cls(field, lambda i: fixed[i] if i < len(fixed) else zero)

    @classmethod
    def from_rational(cls, stream) -> "StreamPrefix":
        """Each coefficient drawn once from the stream's recurrence (see ``at``)."""
        terms = stream._terms()
        return cls(stream.field, lambda i: next(terms))

    @classmethod
    def constant(cls, field, c):
        return cls.from_coefficients(field, [c])

    def head(self):
        return self.at(0)

    def tail(self) -> "StreamPrefix":
        return StreamPrefix(self.field, lambda i: self.at(i + 1))

    def prepend(self, c) -> "StreamPrefix":
        c = self.field.coerce(c)
        return StreamPrefix(self.field, lambda i: c if i == 0 else self.at(i - 1))

    def _check(self, other: "StreamPrefix"):
        if other.field != self.field:
            raise FieldMismatch("prefix streams over different fields")

    def __add__(self, other):
        self._check(other)
        return StreamPrefix(self.field, lambda i: self.at(i) + other.at(i))

    def __sub__(self, other):
        self._check(other)
        return self + -other

    def __neg__(self):
        return StreamPrefix(self.field, lambda i: -self.at(i))

    def __mul__(self, other):
        """Convolution (Cauchy) product."""
        self._check(other)

        def produce(n):
            acc = self.field.zero()
            for i in range(n + 1):
                acc = acc + self.at(i) * other.at(n - i)
            return acc

        return StreamPrefix(self.field, produce)

    def scale(self, c):
        c = self.field.coerce(c)
        return StreamPrefix(self.field, lambda i: c * self.at(i))

    def inverse(self) -> "StreamPrefix":
        """Multiplicative inverse; requires a nonzero head.

        b(0) = a(0)^-1 and b(n) = -a(0)^-1 * sum_{i=1..n} a(i) b(n-i); the
        producer only looks back at already-cached values of the result.
        """
        if not self.at(0):
            raise ZeroInitialValue("head coefficient is 0; no inverse exists")
        head_inv = self.field.inv(self.at(0))

        def produce(n):
            if n == 0:
                return head_inv
            acc = self.field.zero()
            for i in range(1, n + 1):
                acc = acc + self.at(i) * result.at(n - i)
            return -head_inv * acc

        result = StreamPrefix(self.field, produce)
        return result
