"""Dense univariate polynomials over an exact field, and their fraction field.

:class:`Polynomial` stores coefficients ascending by degree with no trailing
zeros (the zero polynomial is the empty tuple, degree -1).

:class:`Quotient` is the one reduced quotient p/q: one checked constructor
(gcd, then normalization), one trusted ``_make`` for values already reduced,
and the field arithmetic.  Its two kinds differ in three hooks only: which
denominators and which divisors they accept, and which coefficient of the
denominator they scale to 1.  :class:`RationalFunction`, an element of k(X),
takes any nonzero denominator and makes it monic; its denominator may vanish
at 0, which is needed transiently during Gaussian elimination over k(X).
:class:`~streamcalc.ratstream.RationalStream` takes only denominators with
q(0) != 0 and scales q(0) to 1.
"""

from __future__ import annotations

from typing import Iterable

from .errors import FieldMismatch
from .fields import Field


class Polynomial:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable = ()):
        cs = [field.coerce(c) for c in coeffs]
        zero = field.zero()
        while cs and cs[-1] == zero:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def _make(cls, field: Field, coeffs: list) -> "Polynomial":
        # internal fast path: coefficients are already field elements
        zero = field.zero()
        while coeffs and coeffs[-1] == zero:
            coeffs.pop()
        p = object.__new__(cls)
        p.field = field
        p.coeffs = tuple(coeffs)
        return p

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (field.one(),))

    @classmethod
    def x(cls, field):
        return cls(field, (field.zero(), field.one()))

    @classmethod
    def constant(cls, field, c):
        return cls(field, (c,))

    @classmethod
    def monomial(cls, field, c, degree: int):
        return cls(field, (field.zero(),) * degree + (field.coerce(c),))

    @property
    def degree(self) -> int:
        """Degree, with -1 standing in for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def constant_term(self):
        return self.coeffs[0] if self.coeffs else self.field.zero()

    @property
    def leading(self):
        if not self.coeffs:
            raise ZeroDivisionError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, i: int):
        return self.coeffs[i] if i < len(self.coeffs) else self.field.zero()

    def _check(self, other: "Polynomial"):
        if other.field != self.field:
            raise FieldMismatch("polynomials over different fields")

    def __add__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial._make(
            self.field,
            [self.coefficient(i) + other.coefficient(i) for i in range(n)],
        )

    def __sub__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial._make(
            self.field,
            [self.coefficient(i) - other.coefficient(i) for i in range(n)],
        )

    def __neg__(self):
        return Polynomial._make(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        self._check(other)
        if self.is_zero or other.is_zero:
            return Polynomial.zero(self.field)
        zero = self.field.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial._make(self.field, out)

    def scale(self, c):
        c = self.field.coerce(c)
        return Polynomial._make(self.field, [c * a for a in self.coeffs])

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative polynomial power")
        field, p, d = self.field, self.coeffs, self.degree
        zero = field.zero()
        char = field.characteristic
        if d > 0 and char and k >= char:
            # Frobenius: f^char = f(X^char) in characteristic char, so
            # f^k = f^(k mod char) * (f^(k div char))(X^char)
            high = (self ** (k // char)).coeffs
            spread = [zero] * (char * (len(high) - 1) + 1)
            spread[::char] = high
            # the sparse factor goes first: ``*`` skips its zero coefficients
            return Polynomial._make(field, spread) * self ** (k % char)
        if d > 0 and p[0] != zero and (char == 0 or k * d < char):
            # J.C.P. Miller's recurrence, from f' p = k p' f for f = p^k: each
            # coefficient costs d operations, and n * p(0) is invertible for
            # every n <= k * d under the characteristic condition above
            out = [p[0] ** k]
            for n in range(1, k * d + 1):
                acc = zero
                for i in range(1, min(n, d) + 1):
                    acc = acc + field.from_int((k + 1) * i - n) * p[i] * out[n - i]
                out.append(acc * field.inv(field.from_int(n) * p[0]))
            return Polynomial._make(field, out)
        result, base = Polynomial.one(field), self
        while k:  # square-and-multiply
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return Polynomial.zero(self.field), self
        field = self.field
        zero = field.zero()
        remainder = list(self.coeffs)
        divisor = other.coeffs
        lead_inv = field.inv(other.leading)
        shift = len(divisor) - 1
        quotient = [zero] * (len(remainder) - shift)
        for i in range(len(remainder) - 1, shift - 1, -1):
            c = remainder[i]
            if c == zero:
                continue
            factor = c * lead_inv
            quotient[i - shift] = factor
            for j in range(shift + 1):
                remainder[i - shift + j] = remainder[i - shift + j] - factor * divisor[j]
        return (
            Polynomial._make(field, quotient),
            Polynomial._make(field, remainder[:shift]),
        )

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero:
            return self
        return self.scale(self.field.inv(self.leading))

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic greatest common divisor (Euclid).

        Remainders are re-normalized to monic each step, which keeps rational
        coefficients from ballooning.
        """
        self._check(other)
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
            if not b.is_zero:
                b = b.monic()
        return a.monic()

    def shifted_down(self) -> "Polynomial":
        """Divide by X; requires a vanishing constant term."""
        if self.is_zero:
            return self
        if self.coeffs[0] != self.field.zero():
            raise ValueError("constant term is nonzero; not divisible by X")
        return Polynomial._make(self.field, list(self.coeffs[1:]))

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return f"Polynomial({self.field!r}, {list(self.coeffs)!r})"

    def __str__(self):
        return format_terms(self)


def format_terms(p: Polynomial) -> str:
    """Canonical text: ascending terms, zero terms and unit coefficients omitted."""
    if p.is_zero:
        return "0"
    field = p.field
    zero, one = field.zero(), field.one()
    parts = []
    for i, c in enumerate(p.coeffs):
        if c == zero:
            continue
        negative = field.is_negative(c)
        magnitude = -c if negative else c
        if i == 0:
            text = field.format(magnitude)
        else:
            var = "X" if i == 1 else f"X^{i}"
            text = var if magnitude == one else f"{field.format(magnitude)}*{var}"
        if not parts:
            parts.append("-" + text if negative else text)
        else:
            parts.append((" - " if negative else " + ") + text)
    return "".join(parts)


class Quotient:
    """Reduced quotient num/den of polynomials, normalized by one coefficient of den.

    The arithmetic shared by :class:`RationalFunction` and
    :class:`~streamcalc.ratstream.RationalStream`.  A subclass supplies three
    hooks: ``_check_denominator`` rejects the denominators it does not accept,
    ``_check_divisor`` the divisors, and ``_normalizer`` picks the coefficient
    of den that is scaled to 1.  Results are built with ``type(self)``, and
    only objects of the same type compare equal, since the two normalizations
    differ.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        if num.field != den.field:
            raise FieldMismatch("numerator and denominator over different fields")
        self._check_denominator(den)
        if num.is_zero:
            den = Polynomial.one(num.field)
        else:
            # gcd is trivial when either side is constant; skip Euclid then
            if num.degree > 0 and den.degree > 0:
                g = num.gcd(den)
                if g.degree > 0:
                    num, den = num // g, den // g
            unit = self._normalizer(den)
            if unit != num.field.one():
                inverse = num.field.inv(unit)
                num, den = num.scale(inverse), den.scale(inverse)
        self.num = num
        self.den = den

    @classmethod
    def _make(cls, num: Polynomial, den: Polynomial):
        # internal fast path: num/den already reduced and normalized
        q = object.__new__(cls)
        q.num = num
        q.den = den
        return q

    @property
    def field(self) -> Field:
        return self.num.field

    @classmethod
    def from_polynomial(cls, p: Polynomial):
        # p/1 is reduced, and 1 is both monic and 1 at 0
        return cls._make(p, Polynomial.one(p.field))

    @classmethod
    def constant(cls, field, c):
        return cls.from_polynomial(Polynomial.constant(field, c))

    @classmethod
    def x(cls, field):
        return cls.from_polynomial(Polynomial.x(field))

    @classmethod
    def zero(cls, field):
        return cls.from_polynomial(Polynomial.zero(field))

    @classmethod
    def one(cls, field):
        return cls.from_polynomial(Polynomial.one(field))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def _check(self, other):
        # k(X) leaves operands over different fields to the polynomial arithmetic
        pass

    def __add__(self, other):
        self._check(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        return type(self)(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        self._check(other)
        if other.is_zero:
            return self
        if self.is_zero:
            return -other
        return type(self)(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self):
        return self._make(-self.num, self.den)

    def __mul__(self, other):
        self._check(other)
        if self.is_zero or other.is_zero:
            return self.zero(self.field)
        return type(self)(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        self._check(other)
        self._check_divisor(other)
        if self.is_zero:
            return self
        return type(self)(self.num * other.den, self.den * other.num)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"{type(self).__name__}({self.num!r}, {self.den!r})"

    def __str__(self):
        num, den = self.num, self.den
        constant = den.constant_term
        if constant != self.field.zero() and constant != self.field.one():
            # display the unit-constant-term representative when it exists
            unit = self.field.inv(constant)
            num, den = num.scale(unit), den.scale(unit)
        if den == Polynomial.one(self.field):
            return format_terms(num)
        return f"({format_terms(num)})/({format_terms(den)})"


class RationalFunction(Quotient):
    """Element of k(X): reduced quotient of polynomials with monic denominator."""

    __slots__ = ()

    @staticmethod
    def _check_denominator(den: Polynomial):
        if den.is_zero:
            raise ZeroDivisionError("zero denominator in rational function")

    @staticmethod
    def _check_divisor(divisor: "RationalFunction"):
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero rational function")

    @staticmethod
    def _normalizer(den: Polynomial):
        return den.leading


class FractionField:
    """Domain descriptor for matrices with entries in k(X)."""

    def __init__(self, base: Field):
        self.base = base

    def zero(self):
        return RationalFunction.zero(self.base)

    def one(self):
        return RationalFunction.one(self.base)

    def from_int(self, n):
        return RationalFunction.constant(self.base, self.base.from_int(n))

    def coerce(self, value):
        if isinstance(value, RationalFunction):
            if value.field != self.base:
                raise FieldMismatch("rational function over the wrong base field")
            return value
        if isinstance(value, Polynomial):
            if value.field != self.base:
                raise FieldMismatch("polynomial over the wrong base field")
            return RationalFunction.from_polynomial(value)
        return RationalFunction.constant(self.base, self.base.coerce(value))

    def format(self, value):
        return str(value)

    def __eq__(self, other):
        return isinstance(other, FractionField) and other.base == self.base

    def __hash__(self):
        return hash(("FractionField", self.base))

    def __repr__(self):
        return f"FractionField({self.base!r})"
