"""Dense univariate polynomials over an exact field, and their fraction field.

:class:`Polynomial` holds its coefficients in the field's integer form, as
``Matrix.integer_orbit``, ``Field.integer_berlekamp_massey`` and
``matrix._eliminate`` hold theirs: ``ints`` and ``d``, coefficient i being
ints[i] / d, ascending by degree with no trailing zeros (the zero
polynomial is no ints over 1, degree -1).  Over GF(p) the ints are residues
and d = 1; over Q, d > 0 is the lcm of the coefficients' denominators and
gcd(d, *ints) = 1, as the field's ``shrink`` leaves them.  The form is
unique, so equality and hashing compare it.  Every operation runs on the
ints, and ``_reduce``, the one normalization, brings each result to the
form, the field kernels' raw gcd and C included; ``coeffs``, the
coefficients as field elements, is boxed once by ``ratios`` when it is first
read, and ``coefficient(i)`` boxes the one coefficient it reads.  The field's
``integers``, ``shrink``, ``ratio``, ``ratios`` and ``characteristic`` are
all this module knows of its scalars.

:class:`Quotient` is the one reduced quotient p/q: one checked constructor
with one path for every p/q (gcd, then normalization, both on the ints), one
trusted ``_make`` for values already reduced, and the field arithmetic.  Its
two kinds differ in three hooks only: which denominators and which divisors
they accept, and which coefficient of the denominator they scale to 1.
:class:`RationalFunction`, an element of k(X), takes any nonzero denominator
and makes it monic; its denominator may vanish at 0, which is needed
transiently during Gaussian elimination over k(X).
:class:`~streamcalc.ratstream.RationalStream` takes only denominators with
q(0) != 0 and scales q(0) to 1.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import FieldMismatch
from .fields import Field


def _same_kind(a, b):
    # the one operand check of polynomials and quotients: same type, same field
    if type(b) is not type(a):
        raise FieldMismatch(f"{type(a).__name__} combined with {type(b).__name__}")
    if b.field != a.field:
        raise FieldMismatch(f"{type(a).__name__} operands over different fields")


class Polynomial:
    """A polynomial over ``field`` in its integer form: coefficient i is
    ``ints[i] / d`` (see the module docstring)."""

    __slots__ = ("field", "ints", "d", "_coeffs")

    def __init__(self, field: Field, coeffs: Iterable = ()):
        cs = [field.coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        ints, self.d = field.integers(cs)
        self.field, self.ints, self._coeffs = field, tuple(ints), tuple(cs)

    @classmethod
    def _make(cls, field: Field, ints: tuple, d: int = 1) -> "Polynomial":
        # internal fast path: a tuple of ints over d, already in the integer form
        p = object.__new__(cls)
        p.field, p.ints, p.d, p._coeffs = field, ints, d, None
        return p

    @classmethod
    def _reduce(cls, field: Field, ints: Sequence[int], d: int = 1) -> "Polynomial":
        """The polynomial with coefficients ints[i] / d, for d nonzero in the
        field, brought to the integer form: over GF(p) the ints times the
        inverse of d mod p, over 1; over Q d made positive and the pair
        ``shrink``ed; then the trailing zeros dropped."""
        p = field.characteristic
        if p:
            inverse = 1 if d == 1 else pow(d, -1, p)
            ints, d = [c * inverse % p for c in ints], 1
        elif d != 1:
            if d < 0:
                ints, d = [-c for c in ints], -d
            ints, d = field.shrink(ints, d)
        n = len(ints)
        while n and not ints[n - 1]:
            n -= 1
        return cls._make(field, tuple(ints[:n]), d)

    @classmethod
    def zero(cls, field):
        return cls._make(field, ())

    @classmethod
    def one(cls, field):
        return cls._make(field, (1,))

    @classmethod
    def x(cls, field):
        return cls._make(field, (0, 1))

    @classmethod
    def constant(cls, field, c):
        return cls(field, (c,))

    @classmethod
    def monomial(cls, field, c, degree: int):
        return cls(field, (field.zero(),) * degree + (field.coerce(c),))

    @property
    def coeffs(self) -> tuple:
        """The coefficients as field elements, boxed at the first read."""
        if self._coeffs is None:
            self._coeffs = tuple(self.field.ratios(self.ints, self.d))
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree, with -1 standing in for the zero polynomial."""
        return len(self.ints) - 1

    def __bool__(self):
        # falsy exactly when zero, as field elements are
        return bool(self.ints)

    @property
    def leading(self):
        if not self.ints:
            raise ZeroDivisionError("zero polynomial has no leading coefficient")
        return self.coefficient(len(self.ints) - 1)

    def coefficient(self, i: int):
        """The coefficient of X^i; zero for every i outside 0..degree.  Only
        this one is boxed, unless ``coeffs`` already is."""
        if not 0 <= i < len(self.ints):
            return self.field.zero()
        if self._coeffs is not None:
            return self._coeffs[i]
        return self.field.ratio(self.ints[i], self.d)

    _check = _same_kind

    def __add__(self, other):
        self._check(other)
        a, b, d = self.ints, other.ints, self.d
        if other.d != d:  # over Q: both over the lcm of the denominators
            d = lcm(d, other.d)
            a, b = [c * (d // self.d) for c in a], [c * (d // other.d) for c in b]
        if len(a) < len(b):
            a, b = b, a
        return Polynomial._reduce(self.field, [x + y for x, y in zip(a, b)] + list(a[len(b) :]), d)

    def __sub__(self, other):
        self._check(other)
        return self + -other

    def __neg__(self):
        p = self.field.characteristic
        return Polynomial._make(self.field, tuple([-c % p if p else -c for c in self.ints]), self.d)

    def __mul__(self, other):
        self._check(other)
        a, b = self.ints, other.ints
        width, out = len(b), [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:  # a zero coefficient adds nothing: the sparse factor goes first
                out[i : i + width] = [o + x * y for o, y in zip(out[i : i + width], b)]
        return Polynomial._reduce(self.field, out, self.d * other.d)

    def scale(self, c):
        (v,), e = self.field.integers([c])
        return self._times(v, e)

    def _times(self, v: int, e: int) -> "Polynomial":
        # self times the scalar v / e, e nonzero in the field
        return Polynomial._reduce(self.field, [v * c for c in self.ints], self.d * e)

    def __pow__(self, k: int):
        """f^k, by the first branch that applies: 0^k; X^(vk) g^k for f =
        X^v g with v > 0 and g(0) != 0, the ints shifted; Miller's recurrence
        for k deg f < char (always over Q, and for every power of a constant,
        which is one integer power); the Frobenius split for k >= char; else
        square-and-multiply."""
        if k < 0:
            raise ValueError("negative polynomial power")
        field, a, d = self.field, self.ints, self.d
        char, degree = field.characteristic, len(a) - 1
        if degree < 0:
            return self if k else Polynomial.one(field)
        if not a[0]:
            v = next(i for i, c in enumerate(a) if c)
            g = Polynomial._make(field, a[v:], d) ** k
            return Polynomial._make(field, (0,) * (v * k) + g.ints, g.d)
        if char == 0 or k * degree < char:
            # J.C.P. Miller's recurrence, from f' p = k p' f for f = p^k: n p_0 out_n
            # = sum_{i=1..min(n, deg)} ((k+1) i - n) p_i out_(n-i), two dot products.
            # Over Q on the ints A of f = A / d: A^k has integer coefficients, so each
            # division by n A_0 is exact, and f^k = A^k / d^k.  Over GF(p) n < p for
            # every n <= k deg f, and 1/n mod p = -(p div n) / (p mod n) from a table.
            tail = a[1:]
            weighted = [(k + 1) * i * c for i, c in enumerate(tail, 1)]
            out = [pow(a[0], k, char) if char else a[0] ** k]
            if char:  # a constant's power is out[0] alone, with no inversion
                inverses, unit = [0, 1], pow(a[0], -1, char) if degree else 1
            for n in range(1, k * degree + 1):
                acc = sum(map(mul, weighted, reversed(out))) - n * sum(map(mul, tail, reversed(out)))
                if char:
                    if n > 1:
                        inverses.append((char - char // n) * inverses[char % n] % char)
                    out.append(acc * inverses[n] % char * unit % char)
                else:
                    out.append(acc // (n * a[0]))
            return Polynomial._make(field, tuple(out), d**k)
        if k >= char:
            # Frobenius: f^char = f(X^char) in characteristic char, so
            # f^k = f^(k mod char) * (f^(k div char))(X^char)
            high = (self ** (k // char)).ints
            spread = [0] * (char * (len(high) - 1) + 1)
            spread[::char] = high
            # the sparse factor goes first: ``*`` skips its zero coefficients
            return Polynomial._make(field, tuple(spread)) * self ** (k % char)
        result, base = Polynomial.one(field), self
        while k:  # square-and-multiply
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __divmod__(self, other):
        """Long division on the ints.  Over GF(p) each quotient term is the
        remainder's top residue times the inverse of the divisor's.  Over Q
        it is fraction-free: the top term c of the remainder is cancelled by
        m r - f X^s B, for the divisor's ints B with leading b and f / m =
        c / b in lowest terms, so only an m != 1 scales the work done, and
        scale * A = quotient * B + remainder over Z; the quotient then is
        (quotient * e) / (scale * d) and the remainder remainder / (scale *
        d), for self = A / d and other = B / e."""
        self._check(other)
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        field, p = self.field, self.field.characteristic
        remainder, divisor = list(self.ints), other.ints
        shift, lead, below = len(divisor) - 1, divisor[-1], divisor[:-1]
        if p:
            lead_inverse = pow(lead, -1, p)
        quotient, scale = [0] * max(len(remainder) - shift, 0), 1
        for i in range(len(remainder) - 1, shift - 1, -1):
            c = remainder[i] % p if p else remainder[i]
            if not c:
                continue
            if p:
                factor = c * lead_inverse % p
            else:
                g = gcd(c, lead)
                factor, m = c // g, lead // g
                if m != 1:
                    scale *= m
                    remainder[:i] = [r * m for r in remainder[:i]]
                    quotient = [q * m for q in quotient]
            start = i - shift
            quotient[start] = factor
            remainder[start:i] = [r - factor * y for r, y in zip(remainder[start:i], below)]
        return (
            Polynomial._reduce(field, [q * other.d for q in quotient], scale * self.d),
            Polynomial._reduce(field, remainder[:shift], scale * self.d),
        )

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if not self:
            return self
        return self._times(self.d, self.ints[-1])

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """Monic greatest common divisor: the field's ``polynomial_gcd`` on
        the two sides' ints, made monic by ``_reduce``."""
        self._check(other)
        return Polynomial._reduce(self.field, *self.field.polynomial_gcd(self.ints, other.ints))

    def shifted_down(self) -> "Polynomial":
        """Divide by X; requires a vanishing constant term."""
        if not self:
            return self
        if self.ints[0]:
            raise ValueError("constant term is nonzero; not divisible by X")
        return Polynomial._make(self.field, self.ints[1:], self.d)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.field == other.field and self.ints == other.ints and self.d == other.d

    def __hash__(self):
        return hash((self.field, self.ints, self.d))

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
    ``_check_divisor`` the divisors, and ``_unit_index`` picks the coefficient
    of den that is scaled to 1.  Results are built with ``type(self)``, and
    only objects of the same type compare equal, since the two normalizations
    differ.

    A sum or product whose result is known to be reduced skips the checked
    constructor: a normalized constant denominator is 1, so a/q + b/1 is
    (a + b q)/q, reduced and normalized as q is, and (a/1)(b/1) is (ab)/1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        """p/q reduced by g = gcd(p, q), then scaled so that the coefficient
        of q at ``_unit_index`` is 1, both on the ints.  Every p/q takes this
        one path: gcd(0, q) is q made monic, which gives 0/1, and a nonzero
        constant side gives g = 1."""
        if num.field != den.field:
            raise FieldMismatch("numerator and denominator over different fields")
        self._check_denominator(den)
        g = num.gcd(den)
        if g.degree > 0:
            num, den = num // g, den // g
        self.num, self.den = _scaled_to_one(num, den, self._unit_index(den))

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
        if den.ints[0]:
            # display the unit-constant-term representative when it exists
            num, den = _scaled_to_one(num, den, 0)
        if den == Polynomial.one(self.field):
            return format_terms(num)
        return f"({format_terms(num)})/({format_terms(den)})"


def _scaled_to_one(num: Polynomial, den: Polynomial, i: int):
    """num/den with both sides scaled so that den's coefficient i, u / d in
    den's integer form, is 1: num times d / u, and den's ints over u."""
    unit, d = den.ints[i], den.d
    if unit == d:
        return num, den
    return num._times(d, unit), Polynomial._reduce(den.field, den.ints, unit)


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
    def _unit_index(den: Polynomial):
        return den.degree


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
