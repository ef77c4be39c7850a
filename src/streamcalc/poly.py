"""Dense univariate polynomials over an exact field, and their fraction field.

:class:`Polynomial` stores coefficients ascending by degree with no trailing
zeros (the zero polynomial is the empty tuple, degree -1); ``coefficient(i)``
reads any one of them, the constant term included.

:class:`Quotient` is the one reduced quotient p/q: one checked constructor
with one path for every p/q (gcd, then normalization), one trusted ``_make``
for values already reduced, and the field arithmetic.  Its two kinds differ
in three hooks only: which denominators and which divisors they accept, and
which coefficient of the denominator they scale to 1.
:class:`RationalFunction`, an element of k(X), takes any nonzero denominator
and makes it monic; its denominator may vanish at 0, which is needed
transiently during Gaussian elimination over k(X).
:class:`~streamcalc.ratstream.RationalStream` takes only denominators with
q(0) != 0 and scales q(0) to 1.
"""

from __future__ import annotations

from typing import Iterable

from .errors import FieldMismatch
from .fields import Field


def _same_kind(a, b):
    # the one operand check of polynomials and quotients: same type, same field
    if type(b) is not type(a):
        raise FieldMismatch(f"{type(a).__name__} combined with {type(b).__name__}")
    if b.field != a.field:
        raise FieldMismatch(f"{type(a).__name__} operands over different fields")


class Polynomial:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Iterable = ()):
        cs = [field.coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    @classmethod
    def _make(cls, field: Field, coeffs: list) -> "Polynomial":
        # internal fast path: coefficients are already field elements
        while coeffs and not coeffs[-1]:
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

    def __bool__(self):
        # falsy exactly when zero, as field elements are
        return bool(self.coeffs)

    @property
    def leading(self):
        if not self.coeffs:
            raise ZeroDivisionError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, i: int):
        """The coefficient of X^i; zero for every i outside 0..degree."""
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.field.zero()

    _check = _same_kind

    def __add__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial._make(
            self.field,
            [self.coefficient(i) + other.coefficient(i) for i in range(n)],
        )

    def __sub__(self, other):
        self._check(other)
        return self + -other

    def __neg__(self):
        return Polynomial._make(self.field, [-c for c in self.coeffs])

    def __mul__(self, other):
        self._check(other)
        out = [self.field.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial._make(self.field, out)

    def scale(self, c):
        c = self.field.coerce(c)
        return Polynomial._make(self.field, [c * a for a in self.coeffs])

    def __pow__(self, k: int):
        """f^k, by the first branch that applies: 0^k; X^(vk) g^k for f =
        X^v g with v > 0 and g(0) != 0; Miller's recurrence for k deg f <
        char (always over Q, and for every power of a constant); the
        Frobenius split for k >= char; else square-and-multiply."""
        if k < 0:
            raise ValueError("negative polynomial power")
        field, p, d = self.field, self.coeffs, self.degree
        char = field.characteristic
        if d < 0:
            return self if k else Polynomial.one(field)
        if not p[0]:
            v = next(i for i, c in enumerate(p) if c)
            shifted = Polynomial._make(field, list(p[v:])) ** k
            return Polynomial._make(field, [field.zero()] * (v * k) + list(shifted.coeffs))
        if char == 0 or k * d < char:
            # J.C.P. Miller's recurrence, from f' p = k p' f for f = p^k: n p_0 out_n
            # = sum_{i=1..min(n, d)} ((k+1) i - n) p_i out_(n-i), two dot products;
            # n * p(0) is invertible for every n <= k * d by the condition above
            dot, tail = field.dot, p[1:]
            weighted = [field.coerce((k + 1) * i) * c for i, c in enumerate(tail, 1)]
            out = [p[0] ** k]
            for n in range(1, k * d + 1):
                m = field.coerce(n)
                acc = dot(weighted, reversed(out)) - m * dot(tail, reversed(out))
                out.append(acc * field.inv(m * p[0]))
            return Polynomial._make(field, out)
        if k >= char:
            # Frobenius: f^char = f(X^char) in characteristic char, so
            # f^k = f^(k mod char) * (f^(k div char))(X^char)
            high = (self ** (k // char)).coeffs
            spread = [field.zero()] * (char * (len(high) - 1) + 1)
            spread[::char] = high
            # the sparse factor goes first: ``*`` skips its zero coefficients
            return Polynomial._make(field, spread) * self ** (k % char)
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
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        field = self.field
        remainder = list(self.coeffs)
        divisor = other.coeffs
        lead_inv = field.inv(other.leading)
        shift = len(divisor) - 1
        quotient = [field.zero()] * (len(remainder) - shift)
        for i in range(len(remainder) - 1, shift - 1, -1):
            c = remainder[i]
            if not c:
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
        if not self:
            return self
        return self.scale(self.field.inv(self.leading))

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic greatest common divisor, by the field's ``polynomial_gcd``."""
        self._check(other)
        return Polynomial._make(self.field, self.field.polynomial_gcd(self.coeffs, other.coeffs))

    def shifted_down(self) -> "Polynomial":
        """Divide by X; requires a vanishing constant term."""
        if not self:
            return self
        if self.coeffs[0]:
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
    if not p:
        return "0"
    field = p.field
    one = field.one()
    parts = []
    for i, c in enumerate(p.coeffs):
        if not c:
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

    A sum or product whose result is known to be reduced skips the checked
    constructor: a normalized constant denominator is 1, so a/q + b/1 is
    (a + b q)/q, reduced and normalized as q is, and (a/1)(b/1) is (ab)/1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        """p/q reduced by g = gcd(p, q), then scaled by the normalizer's
        inverse.  Every p/q takes this one path: gcd(0, q) is q made monic,
        which gives 0/1, and a nonzero constant side gives g = 1."""
        if num.field != den.field:
            raise FieldMismatch("numerator and denominator over different fields")
        self._check_denominator(den)
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

    def __bool__(self):
        # falsy exactly when zero, as field elements are
        return bool(self.num)

    _check = _same_kind

    def __add__(self, other):
        self._check(other)
        # a/q + b/1 = (a + b q)/q is reduced, as gcd(a + b q, q) = gcd(a, q) = 1
        if not other.den.degree:
            b = other.num * self.den if self.den.degree else other.num
            return self._make(self.num + b, self.den)
        if not self.den.degree:
            return self._make(self.num * other.den + other.num, other.den)
        return type(self)(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        self._check(other)
        return self + -other

    def __neg__(self):
        return self._make(-self.num, self.den)

    def __mul__(self, other):
        self._check(other)
        if not (self.den.degree or other.den.degree):
            return self._make(self.num * other.num, self.den)
        return type(self)(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        self._check(other)
        self._check_divisor(other)
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
        constant = den.coefficient(0)
        if constant and constant != self.field.one():
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
        if not den:
            raise ZeroDivisionError("zero denominator in rational function")

    @staticmethod
    def _check_divisor(divisor: "RationalFunction"):
        if not divisor:
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

    dot = Field.dot  # the fold with RationalFunction's arithmetic, skipping zero entries

    # The integer form over k[X], as ``Field`` has it over Q and GF(p), for
    # ``matrix._eliminate``: polynomials over one denominator.

    def integers(self, elements):
        """(polys, d): the ``coerce``d elements as polys[i] / d, d the lcm of
        their (monic) denominators."""
        elements = [self.coerce(e) for e in elements]
        d = Polynomial.one(self.base)
        for e in elements:
            if e.den.degree:
                d = d * (e.den // d.gcd(e.den))
        return [e.num * (d // e.den) if e and e.den != d else e.num for e in elements], d

    def shrink(self, polys, d):
        """(polys, d) divided by the gcd of the polynomials and d, which keeps
        each polys[i] / d, and for d = 0 the ratios of polys not all zero."""
        g = d
        for p in polys:
            if p:
                g = p.gcd(g) if g else p
                if not g.degree:
                    return polys, d
        return [p // g for p in polys], (d // g if d else d)

    def ratios(self, polys, d):
        """The elements polys[i] / d of k(X), for d nonzero."""
        return [RationalFunction(p, d) for p in polys]

    def format(self, value):
        return str(value)

    def __eq__(self, other):
        return isinstance(other, FractionField) and other.base == self.base

    def __hash__(self):
        return hash(("FractionField", self.base))

    def __repr__(self):
        return f"FractionField({self.base!r})"
