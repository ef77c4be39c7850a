"""Representation-agnostic prefix streams: memoized on-demand coefficients.

A :class:`StreamPrefix` produces coefficients lazily, calling its producer
once per index in increasing order, and caches everything produced so far, so
re-querying an index always yields the identical element.  Pointwise sum,
convolution product and the multiplicative inverse are defined directly on
coefficients; these serve as the representation-independent substrate that
every closed form must agree with.  No equality is offered here (undecidable
for arbitrary producers).  ``from_rational`` draws a closed form's ``_terms``.

The product and the inverse run their own loop on the field's integer form,
as ``Netlist.simulate`` does: a prefix keeps its cached coefficients a second
time as integers over one denominator (``Field.integers``; over GF(p) the
residues over 1), so each new coefficient is one integer convolution, boxed
once by ``Field.ratio``.  They never reach the kernels (``dot``,
``recurrence``), and so stay an independent check of them.
"""

from __future__ import annotations

import sys
from math import lcm
from operator import mul
from typing import Callable, List, Sequence, Tuple

from .errors import FieldMismatch, ZeroInitialValue, check_count
from .fields import Field


class StreamPrefix:
    def __init__(self, field: Field, producer: Callable[[int], object]):
        self.field = field
        self._producer = producer
        self._cache: List = []
        # the cache again as _ints[i] / _scale, extended by ``_integers``
        self._ints: List[int] = []
        self._scale = 1

    def at(self, i: int):
        if not 0 <= i <= sys.maxsize:  # the check inline: at is on every hot path
            check_count(i, "stream index")
        # each index once, in order: producers may read back smaller indices
        while len(self._cache) <= i:
            self._cache.append(self._producer(len(self._cache)))
        return self._cache[i]

    def take(self, n: int) -> List:
        check_count(n, "number of coefficients")
        return [self.at(i) for i in range(n)]

    def _integers(self, n: int) -> Tuple[List[int], int]:
        """(ints, d): the first n >= 1 coefficients as ints[i] / d, a snapshot.

        New coefficients join over the lcm of d and their own denominator,
        the list rescaled once when d grows.  A nested producer may rescale
        the list after this read, so the caller gets a copy and its d.
        """
        self.at(n - 1)  # may read this prefix's integer form back, nested
        ints = self._ints
        if len(ints) < n:
            new, e = self.field.integers(self._cache[len(ints):n])
            d, m = self._scale, lcm(self._scale, e)
            if m != d:
                ints = [v * (m // d) for v in ints]
            if m != e:
                new = [v * (m // e) for v in new]
            ints.extend(new)
            self._ints, self._scale = ints, m
        return ints[:n], self._scale

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
        """Convolution (Cauchy) product: coefficient n is
        sum_(i=0..n) a(i) b(n-i), one convolution of the integer forms over
        the product of their denominators."""
        self._check(other)
        ratio = self.field.ratio

        def produce(n):
            a, da = self._integers(n + 1)
            b, db = other._integers(n + 1)
            return ratio(sum(map(mul, a, reversed(b))), da * db)

        return StreamPrefix(self.field, produce)

    def inverse(self) -> "StreamPrefix":
        """Multiplicative inverse; requires a nonzero head.

        b(0) = a(0)^-1 and b(n) = -a(0)^-1 * sum_{i=1..n} a(i) b(n-i); the
        producer only looks back at already-cached values of the result.
        On the integer forms a(i) = A_i / da and b(j) = B_j / db, da cancels:
        b(n) = -sum_{i=1..n} A_i B_(n-i) / (db A_0).
        """
        if not self.at(0):
            raise ZeroInitialValue("head coefficient is 0; no inverse exists")
        head_inv, ratio = self.field.inv(self.at(0)), self.field.ratio

        def produce(n):
            if n == 0:
                return head_inv
            a, _ = self._integers(n + 1)
            b, db = result._integers(n)
            # reversed(a) against b pairs a(n-j) with b(j) for j < n: i >= 1
            return ratio(-sum(map(mul, reversed(a), b)), db * a[0])

        result = StreamPrefix(self.field, produce)
        return result
