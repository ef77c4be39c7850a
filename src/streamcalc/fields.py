"""Exact scalar arithmetic: arbitrary-precision rationals and prime fields GF(p).

Rational scalars are plain ``fractions.Fraction`` values (always in lowest
terms with positive denominator).  Each is made by ``Fraction``'s checked
constructor, but for a recurrence term: ``_lowest_terms`` reduces it by
gcds with the small tap scale, where the checked constructor would take a
gcd of two integers that grow with the index, and ``_trusted_fraction``,
the one trusted constructor, boxes it; a test keeps every other module off
``Fraction``'s slots.  Prime-field scalars are
:class:`PrimeFieldElement` residues.  A field descriptor object
(:data:`QQ` or a :class:`PrimeField`) supplies identities, inversion and the
text syntax used by matrices, files and the CLI.  Its ``coerce`` decides
membership, for matrices, polynomials and a residue's operators alike, and
its ``dot``, one boxed fold for every field, sums products, for
``Matrix.apply`` and matrix products.  Its ``recurrence`` makes the
coefficients of a closed form p/q, for every expansion, from the integer
forms of p and q: fraction-free on integers over Q, on bare residues over
GF(p).

Every other integer kernel reaches a field's scalars only through the
field's integer form, four members: ``integers`` puts elements over one
denominator d, ``shrink`` makes integers over d smaller, and ``ratio`` and
``ratios`` box integers over d as elements again; an integer v is zero in
the field when ``v % p if p else v`` is, p the ``characteristic`` (0 on Q).
``Field.integer_berlekamp_massey``, ``Matrix.integer_orbit``,
``matrix._eliminate`` (whose ``integers``, ``shrink`` and ``ratios``
``FractionField`` also has, over k[X]), ``Polynomial``, which holds its
coefficients in the form and runs all its arithmetic on the ints, and the
netlist plan are those kernels.  The orbit hands its integers to
Berlekamp-Massey and the elimination unboxed, and Berlekamp-Massey its C
to the polynomials; a test guards this, and that no other module names
``Rationals``.
A field class overrides only what differs between fields: its elements, its
integer form, and ``recurrence``, the loop that measured slower as one path
for both.  A loop that runs alike over Q and GF(p) is one ``Field`` method
that forks on ``characteristic``, as ``Netlist._tick`` does:
``integer_berlekamp_massey``, back from coefficients to the shortest
recurrence (``berlekamp_massey`` is ``integers``, it and one ``ratios``),
and ``polynomial_gcd``, the one gcd of ``Polynomial.gcd``, on the two
polynomials' ints, by one Euclid loop on ints, ``_euclid``: on residues mod
p over GF(p); over Q mod a prime, as a certificate that the gcd is 1, and
where that proves nothing on integers, as the primitive PRS.  Both kernels
return raw integer forms, a C and a gcd as their loops leave them, not
normalized: ``Polynomial._reduce`` is the one normalization that makes them
canonical, as it makes every other polynomial result.
Over GF(p) the form is the residues over 1.  Over Q it is written here
once: ``over_one_denominator`` puts ``Fraction``s over their least common
denominator, and ``strip_content``, which is ``Rationals.shrink``, divides
integers over a shared denominator by their common content;
``Rationals.recurrence``, whose window the strip rebuilds, calls it too.
"""

from __future__ import annotations

import re
from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import chain, repeat
from math import gcd, lcm, prod
from operator import mul
from typing import Iterable, Iterator, List, Sequence, Tuple

from .errors import FieldMismatch, FormatError

# [0-9], not \d: \d also matches other scripts' digits such as '٣'
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?\Z")
_INTEGER_RE = re.compile(r"[+-]?[0-9]+\Z")

# Bound on the digits of an integer literal in any input: converting a
# decimal string costs time quadratic in its length.
MAX_LITERAL_DIGITS = 4300

# The first 12 primes as Miller-Rabin witnesses decide primality exactly below
# psi_12 = 318665857834031151167461 = 399165290221 * 798330580441, the least
# composite that is a strong pseudoprime to all of them (Sorenson-Webster).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MR_BOUND = 318665857834031151167461


def is_ascii_digits(text: str) -> bool:
    """Whether ``text`` is a nonempty run of 0-9 (``str.isdigit`` also takes ``²``)."""
    return text.isascii() and text.isdigit()


def parse_integer(text: str) -> int:
    """``int(text)`` for a literal already checked to be signed ASCII digits.

    A literal of more than MAX_LITERAL_DIGITS digits raises a FormatError.
    This stays the input bound where the interpreter's own limit on ``int``
    is lifted, as ``cli.main`` lifts it while a command runs.
    """
    digits = len(text.lstrip("+-"))
    if digits > MAX_LITERAL_DIGITS:
        raise FormatError(
            f"integer literal of {digits} digits is too long (at most {MAX_LITERAL_DIGITS})"
        )
    return int(text)


def is_prime(n: int) -> bool:
    """Deterministic primality for n < MR_BOUND; larger n raise ValueError."""
    if n >= MR_BOUND:
        raise ValueError(f"{n} is beyond the deterministic Miller-Rabin bound")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _invmod(a: int, p: int) -> int:
    try:
        return pow(a, -1, p)
    except ValueError:
        raise ZeroDivisionError("inversion of zero in prime field") from None


# The modulus of the coprimality certificate over Q, the Mersenne prime.
CERTIFICATE_PRIME = 2**61 - 1


def _euclid(a: List[int], b: List[int], p: int) -> List[int]:
    """A gcd of two polynomials given by int lists, leading coefficient
    first and nonzero (the empty list for 0), in the same form and as the
    loop finds it, with no inversion, sign fix or content strip: for a prime
    p residues, a unit multiple of the monic gcd over GF(p); for p = 0
    integers, a nonzero multiple of the primitive gcd over Z; [1] for a
    nonzero constant remainder.  Euclid without inversions, as in
    ``Field.integer_berlekamp_massey``: the leading term c of a is cancelled
    by a <- lead(b) a - c X^s b (mod p), so each remainder is a mod b times a
    unit mod p, or times a power of lead(b) over Z, where it is then divided
    by its content: the primitive PRS (Collins 1967, Brown 1971).  The update
    runs on the deg b terms below c; the factors lead(b) of the terms further
    down are kept in ``scale`` and applied as each term enters that window."""
    a = list(a)
    while len(b) > 1:
        lead, tail = b[0], b[1:]
        k, scale = len(tail), 1
        for i in range(len(a) - k):
            if i:
                a[i + k] = a[i + k] * scale % p if p else a[i + k] * scale
            c = a[i]
            if c:
                window = zip(a[i + 1 : i + k + 1], tail)
                if p:
                    a[i + 1 : i + k + 1] = [(lead * x - c * y) % p for x, y in window]
                    scale = scale * lead % p
                else:
                    a[i + 1 : i + k + 1] = [lead * x - c * y for x, y in window]
                    scale *= lead
        rest = a[max(len(a) - k, 0) :]
        rest = rest[next((i for i, c in enumerate(rest) if c), len(rest)) :]
        a, b = b, rest if p or not rest else strip_content(rest, 0)[0]
    return [1] if b else a  # b: a nonzero constant


def over_one_denominator(fractions: Iterable[Fraction]) -> Tuple[List[int], int]:
    """(ints, D): D the lcm of the denominators (1 for none), and ints[i] =
    D fractions[i], so that each fraction is ints[i] / D."""
    fractions = list(fractions)
    scale = lcm(*(f.denominator for f in fractions))
    return [f.numerator * (scale // f.denominator) for f in fractions], scale


def strip_content(ints: List[int], g: int) -> Tuple[List[int], int]:
    """(ints, g) divided by their common content gcd(g, *ints), so that each
    ints[i] / g keeps its value: for g > 0, or for g = 0 (no denominator) and
    ints not all zero, which then keep their ratios."""
    content = gcd(g, *ints)
    if content == 1:
        return ints, g
    return [a // content for a in ints], g // content


def _trusted_fraction(numerator: int, denominator: int) -> Fraction:
    """The ``Fraction`` numerator / denominator, for a pair already in lowest
    terms with denominator > 0, built without the gcd that ``Fraction`` takes:
    its two slots set on a bare instance, the one trusted constructor of Q's
    scalars (CPython 3.10 to 3.13 keep both slots)."""
    fraction = object.__new__(Fraction)
    fraction._numerator, fraction._denominator = numerator, denominator
    return fraction


def _lowest_terms(w: int, scale: int, m: int) -> Fraction:
    """``Fraction(w, scale)`` for scale > 0 with every prime of scale dividing
    m, by gcds with the small m in place of gcd(w, scale), whose operands
    both grow with the index in ``Rationals.recurrence`` (the coprime base
    idea of Bernstein 2005).  A prime shared by w and scale divides m, so
    h = gcd(w, m) = 1 proves w / scale reduced, and otherwise h = gcd(h,
    scale) holds every shared prime.  Squaring, h = gcd(gcd(w, h^2), scale)
    takes each prime's exponent in h from a to min(v(w), v(scale), 2a); at
    its fixed point h is the whole gcd(w, scale) over the shared primes,
    reached in log2 of the largest shared exponent steps, so one division
    leaves the pair reduced."""
    if not w:
        return _trusted_fraction(0, 1)
    h = gcd(w, m)
    if h != 1:
        h = gcd(h, scale)
        while h != 1:
            grown = gcd(gcd(w, h * h), scale)
            if grown == h:
                w, scale = w // h, scale // h
                break
            h = grown
    return _trusted_fraction(w, scale)


class Field:
    """Descriptor of a scalar field: identities, coercion, text syntax.

    An element is zero exactly when it is falsy, as ``Fraction(0)`` is; that
    truth value is the one zero test.  ``coerce`` admits an element and is
    the one way from an int to an element.
    """

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def coerce(self, value):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def dot(self, xs, ys):
        """The sum of x * y over paired elements that ``coerce`` has admitted;
        pairs stop at the shorter input, and no pairs give ``zero()``.

        A pair whose first factor is zero may go unmultiplied (this fold
        skips it), so callers pass the sparse side first: a matrix row, the
        recurrence taps.
        """
        products = (x * y for x, y in zip(xs, ys) if x)
        first = next(products, None)  # fold from it: no addition to zero
        return self.zero() if first is None else sum(products, first)

    def recurrence(self, num: Tuple[Sequence[int], int], den: Tuple[Sequence[int], int]) -> Iterator:
        """s_0, s_1, ... of the stream num/den, from the integer forms (ints,
        d) of its numerator and of its denominator, as ``Polynomial`` holds
        them (coefficient i is ints[i] / d; over GF(p) residues over 1), the
        denominator with den_0 = 1: s_n = num_n - sum_(j=1..deg den) den_j
        s_(n-j), without end."""
        raise NotImplementedError

    def integers(self, elements: Iterable) -> Tuple[List[int], int]:
        """(ints, d), d > 0: the ``coerce``d elements as ints[i] / d; over Q
        ``over_one_denominator``, over GF(p) the residues over 1."""
        raise NotImplementedError

    def shrink(self, ints: List[int], d: int) -> Tuple[List[int], int]:
        """(ints, d) over smaller integers: the same elements ints[i] / d for
        d > 0, or for d = 0 the same ratios of ints not all zero.  Over Q
        ``strip_content`` divides both by their common content; over GF(p)
        the ints are reduced mod p and d is kept."""
        raise NotImplementedError

    def ratios(self, ints: Sequence[int], d: int) -> List:
        """The field elements ints[i] / d, for d nonzero in the field."""
        raise NotImplementedError

    def ratio(self, v: int, d: int):
        """The one field element v / d, as ``ratios([v], d)[0]`` without the
        lists: ``Fraction`` itself over Q."""
        raise NotImplementedError

    def berlekamp_massey(self, terms: Sequence) -> Tuple[List, int]:
        """(C, L): the shortest linear recurrence of ``terms`` (Massey 1969).

        C = [1, c_1, ..., c_k] (k <= L, no trailing zeros) satisfies
        sum_(i=0..L) c_i terms[n-i] = 0 for every L <= n < len(terms), and L
        is the least length with that property.  When len(terms) < 2L, C is
        not unique; this kernel returns the C of Massey's update on field
        elements.  The terms go through ``integers`` once, the loop is
        ``integer_berlekamp_massey``, and its C is boxed once, over C(0).
        """
        connection, length = self.integer_berlekamp_massey(*self.integers(terms))
        return self.ratios(connection, connection[0]), length

    def integer_berlekamp_massey(self, ints: Sequence[int], scale: int) -> Tuple[List[int], int]:
        """(C, L) of ``berlekamp_massey`` for the terms ints[i] / scale, scale
        nonzero in the field: the one loop, for every field, on the integer
        form, with C returned as the loop leaves it, integers whose ratios
        are C's coefficients, C[0] nonzero in the field and no trailing
        zeros.  ``Polynomial._reduce(field, C, C[0])`` is its canonical form.

        Fraction-free (Bareiss's idea on Massey's update): on the integers
        a_i over one d, it replaces C <- C - (d_n / b) X^gap B by
        C <- b C - d_n X^gap B, which needs no inversion in any integral
        domain, and ``shrink``s C (with d = 0, as ratios) after each update.
        Each d_n is reduced mod the ``characteristic`` p when p > 0, so the
        ints need not be residues.  Each integer C is then a nonzero multiple
        of the C of the update on field elements, provided b is the
        discrepancy of the integer B: for B = 1 that is d, not 1, or the C of
        the prefix [1/2] would be 1 - X.  Over Q, C's integers keep the bits
        of C itself, with no gcd per operation.
        """
        p, shrink = self.characteristic, self.shrink
        current, previous = [1], [1]  # C and B, on integers
        length, gap, last = 0, 1, scale  # last: the discrepancy of B
        for n in range(len(ints)):
            # deg C <= L <= n, so the window ints[n+1-len(C) .. n] exists
            window = ints[n + 1 - len(current) : n + 1]
            discrepancy = sum(map(mul, current, reversed(window)))
            discrepancy = discrepancy % p if p else discrepancy
            if not discrepancy:
                gap += 1
                continue
            updated = [last * c for c in current]
            updated += [0] * (gap + len(previous) - len(current))
            for i, b in enumerate(previous, gap):
                updated[i] -= discrepancy * b
            updated, _ = shrink(updated, 0)
            while not updated[-1]:
                updated.pop()
            if 2 * length <= n:
                previous, length, last, gap = current, n + 1 - length, discrepancy, 1
            else:
                gap += 1
            current = updated
        return current, length

    def polynomial_gcd(self, a: Sequence[int], b: Sequence[int]) -> Tuple[List[int], int]:
        """A gcd of two polynomials given by the ints of their integer form
        (ascending, no trailing zeros; none for 0; their denominators do not
        change the gcd), as (ints, lead): ``_euclid``'s gcd G, Euclid without
        inversions, ascending, and its leading coefficient, so that
        ``Polynomial._reduce(field, ints, lead)`` is the monic gcd; for two
        zero operands ([], 1), the zero polynomial.

        Over GF(p) the loop runs on the residues mod p.  Over Q the ints are
        the sides with their denominators cleared, integer polynomials A and
        B.  Where the prime q = ``CERTIFICATE_PRIME``, 2^61 - 1, divides
        neither leading coefficient, the primitive gcd G of A and B divides
        both in Z[X] and keeps its degree mod q, so deg gcd(A mod q, B mod q)
        >= deg G (the unlucky-prime lemma of Brown's modular gcd, Brown
        1971): a residue gcd of degree 0 proves that the gcd is 1, as it
        almost always is.  Every other pair, a zero operand, a leading
        coefficient that q divides or a common factor, runs the loop on A and
        B themselves, the primitive PRS.  A nonzero constant operand (one
        coefficient) is a unit, so the gcd is 1 before any of this.
        """
        if len(a) == 1 or len(b) == 1:
            return [1], 1
        a, b = list(a[::-1]), list(b[::-1])  # leading coefficient first
        p, q = self.characteristic, CERTIFICATE_PRIME
        if not p and a and b and a[0] % q and b[0] % q:
            if len(_euclid([c % q for c in a], [c % q for c in b], q)) == 1:
                return [1], 1
        g = _euclid(a, b, p)
        return g[::-1], g[0] if g else 1

    def is_negative(self, a) -> bool:
        """Whether ``a`` renders with a leading minus sign."""
        raise NotImplementedError

    def parse(self, text: str):
        raise NotImplementedError

    def format(self, a) -> str:
        raise NotImplementedError

    def spec(self) -> str:
        """The CLI/file syntax naming this field (``q`` or ``gf:p``)."""
        raise NotImplementedError

    @property
    def characteristic(self) -> int:
        raise NotImplementedError


class Rationals(Field):
    """The field of arbitrary-precision rationals."""

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise FieldMismatch(f"cannot interpret {value!r} as a rational scalar")

    def inv(self, a):
        return 1 / self.coerce(a)

    def recurrence(self, num, den):
        """Fraction-free: with c an integer such that every c^j den_j is an
        integer, and E the numerator's d (the lcm of its denominators), w_n = E c^n s_n
        is an integer, w_n = E c^n num_n - sum_j (c^j den_j) w_(n-j), and each
        term is w_n / E c^n in lowest terms, by ``_lowest_terms`` with the
        small m = c E: every prime of the scale divides m.  c^n may hold more
        factors than the terms need (den_8 = 1/29 puts a 29 into c where s_n
        needs 29^(n/8)), so every max(2 deg den, 8) terms the window is rebuilt
        by the content strip: over E c^(n+1-d) its last d integers are
        c^(d-1), ..., c^0 times the last d terms, ``strip_content`` takes
        them to the least E that keeps them integers, and the next term goes
        over E c^d.  The floor of 8 keeps a rebuild, a few big gcds, from
        costing more than it drops at deg den = 1.  The rebuilt scale divides
        E c^n times c^d, so its primes still divide m.
        """
        den_ints, den_d = den
        d = len(den_ints) - 1
        c = _tap_scale(self.ratios(den_ints[1:], den_d))
        c_d = c**d
        taps = [t * c**j // den_d for j, t in enumerate(den_ints[1:], 1)]
        window = deque(maxlen=d)  # the integers w, newest first
        ints, scale = num  # E num_n, and E c^n for the next term
        m = c * scale
        power = 1  # c^n
        for a in ints:
            w = a * power - sum(map(mul, taps, window))
            window.appendleft(w)
            yield _lowest_terms(w, scale, m)
            scale *= c
            power *= c
        while True:
            for _ in range(max(2 * d, 8)):
                w = -sum(map(mul, taps, window))
                window.appendleft(w)
                yield _lowest_terms(w, scale, m)
                scale *= c
            ints, lowest = strip_content(list(window), scale // c_d)
            window, scale = deque(ints, maxlen=d), lowest * c_d

    def integers(self, elements):
        return over_one_denominator(self.coerce(t) for t in elements)

    shrink = staticmethod(strip_content)

    def ratios(self, ints, d):
        return [Fraction(c, d) for c in ints]

    ratio = Fraction

    def is_negative(self, a):
        return a < 0

    def parse(self, text):
        text = text.strip()
        if not _RATIONAL_RE.match(text):
            raise FormatError(f"bad rational scalar: {text!r}")
        num, slash, den = text.partition("/")
        denominator = parse_integer(den) if slash else 1
        if denominator == 0:
            raise FormatError(f"zero denominator in scalar: {text!r}")
        return Fraction(parse_integer(num), denominator)

    def format(self, a):
        return str(a)

    def spec(self):
        return "q"

    @property
    def characteristic(self):
        return 0

    def __repr__(self):
        return "Rationals()"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Rationals")


QQ = Rationals()


class PrimeFieldElement:
    """A residue in GF(p), always reduced to [0, p)."""

    __slots__ = ("value", "field")

    def __init__(self, value: int, field: "PrimeField"):
        self.value = value % field.modulus
        self.field = field

    def __add__(self, other):
        return PrimeFieldElement(self.value + self.field.coerce(other).value, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        return PrimeFieldElement(self.value - self.field.coerce(other).value, self.field)

    def __rsub__(self, other):
        return PrimeFieldElement(self.field.coerce(other).value - self.value, self.field)

    def __mul__(self, other):
        return PrimeFieldElement(self.value * self.field.coerce(other).value, self.field)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * self.field.inv(other)

    def __rtruediv__(self, other):
        return self.field.coerce(other) * self.field.inv(self)

    def __neg__(self):
        return PrimeFieldElement(-self.value, self.field)

    def __pow__(self, k: int):
        if k < 0:
            return self.field.inv(self) ** (-k)
        return PrimeFieldElement(pow(self.value, k, self.field.modulus), self.field)

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, PrimeFieldElement):
            return self.field == other.field and self.value == other.value
        if isinstance(other, int):
            # like Fraction(3) == 3: equal only to the residue itself, so
            # equal values hash alike
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"GF{self.field.modulus}({self.value})"

    def __str__(self):
        return str(self.value)


class PrimeField(Field):
    """GF(p) for a prime modulus, checked at construction."""

    def __init__(self, modulus: int):
        if modulus >= MR_BOUND:
            raise FormatError(
                f"prime field modulus {modulus} cannot be certified prime "
                f"(moduli must be below {MR_BOUND})"
            )
        if not is_prime(modulus):
            raise FormatError(f"prime field modulus must be prime, got {modulus}")
        self.modulus = modulus

    def zero(self):
        return PrimeFieldElement(0, self)

    def one(self):
        return PrimeFieldElement(1, self)

    def coerce(self, value):
        if isinstance(value, PrimeFieldElement):
            # identity first: a field is almost always the one _prime_field object
            if value.field is not self and value.field != self:
                raise FieldMismatch(
                    f"GF({value.field.modulus}) value used in GF({self.modulus})"
                )
            return value
        if isinstance(value, int):
            return PrimeFieldElement(value, self)
        raise FieldMismatch(f"cannot interpret {value!r} in GF({self.modulus})")

    def inv(self, a):
        return PrimeFieldElement(_invmod(self.coerce(a).value, self.modulus), self)

    def recurrence(self, num, den):
        # a window of residues (both forms are over 1); the box reduces each term once
        taps = den[0][1:]
        window = deque(maxlen=len(taps))  # newest first
        for a in chain(num[0], repeat(0)):
            term = PrimeFieldElement(a - sum(map(mul, taps, window)), self)
            window.appendleft(term.value)
            yield term

    def integers(self, elements):
        return [self.coerce(t).value for t in elements], 1

    def shrink(self, ints, d):
        p = self.modulus
        return [c % p for c in ints], d

    def ratios(self, ints, d):
        inverse = 1 if d == 1 else _invmod(d, self.modulus)
        return [PrimeFieldElement(c * inverse, self) for c in ints]

    def ratio(self, v, d):
        return PrimeFieldElement(v if d == 1 else v * _invmod(d, self.modulus), self)

    def is_negative(self, a):
        return False

    def parse(self, text):
        text = text.strip()
        if not _INTEGER_RE.match(text):
            raise FormatError(f"bad GF({self.modulus}) scalar: {text!r}")
        return PrimeFieldElement(parse_integer(text), self)

    def format(self, a):
        return str(self.coerce(a).value)

    def spec(self):
        return f"gf:{self.modulus}"

    @property
    def characteristic(self):
        return self.modulus

    def __repr__(self):
        return f"PrimeField({self.modulus})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.modulus == self.modulus

    def __hash__(self):
        return hash(("PrimeField", self.modulus))


def _coprime_base(numbers) -> List[int]:
    """Pairwise coprime integers > 1 whose powers multiply to each of ``numbers``,
    by gcds only: a factor g > 1 shared by a and b splits them into a/g, g, b/g."""
    base, pending = [], [n for n in numbers if n > 1]
    while pending:
        a = pending.pop()
        for i, b in enumerate(base):
            g = gcd(a, b)
            if g > 1:
                del base[i]
                pending.extend(n for n in (a // g, g, b // g) if n > 1)
                break
        else:
            base.append(a)
    return base


# The primes that _tap_scale splits off by trial division, and their product.
_SMALL_PRIMES = tuple(p for p in range(2, 100) if all(p % q for q in range(2, p)))
_PRIMORIAL = prod(_SMALL_PRIMES)


def _integer_root(n: int, m: int) -> int:
    """The floor of the m-th root of n >= 1 (Newton's method on integers,
    from above)."""
    x = 1 << -(-n.bit_length() // m)
    while True:
        y = ((m - 1) * x + n // x ** (m - 1)) // m
        if y >= x:
            return x
        x = y


def _perfect_root(b: int) -> int:
    """The r with b = r^m and m largest, for b without a prime factor below
    100 and m without one above 97: exact prime roots are taken, the smaller
    primes first, and as r >= 101 > 2^6 no m-th root is tried once 6m
    reaches the bits of b."""
    for m in _SMALL_PRIMES:
        if 6 * m >= b.bit_length():
            break
        r = _integer_root(b, m)
        while r**m == b:
            b, r = r, _integer_root(r, m)
    return b


def _tap_scale(taps: Sequence[Fraction]) -> int:
    """An integer c with c^j taps[j-1] integral for every j: each element b of
    a coprime base of the denominators to the power max_j ceil(e_(b,j) / j),
    where b^e_(b,j) exactly divides the j-th denominator.  For the taps of
    (1 - X/2)^8 that is 2, where their lcm is 256.  The base holds every
    prime below 100 that divides a denominator, found by trial division, and
    a coprime base, by gcds alone, of what the denominators leave over, each
    element replaced by its perfect-power root; so c is the least such
    integer when the denominators have no prime factor above 100, 6 for the
    taps (1, 1/18), where the gcds alone give 18, and 101 for (1, 1/101^2).
    A base element that is no perfect power but a product of unequal powers
    of large primes, 101 * 103^2 alone, still rounds up as a whole."""
    first = {}  # each denominator at its least j, where e_(b,j) / j is largest
    for j, t in enumerate(taps, 1):
        first.setdefault(t.denominator, j)
    small = lcm(*(gcd(n, _PRIMORIAL) for n in first))  # the small primes that divide one
    base = [p for p in _SMALL_PRIMES if small % p == 0] if small > 1 else []
    rests = []
    for n in first:
        for p in base:
            while n % p == 0:
                n //= p
        rests.append(n)
    c = 1
    for b in base + [_perfect_root(b) for b in _coprime_base(rests)]:
        top, bottom = 0, 1  # max_j e_(b,j) / j
        for n, j in first.items():
            e = 0
            while n % b == 0:
                n //= b
                e += 1
            if e * bottom > top * j:
                top, bottom = e, j
        c *= b ** -(-top // bottom)
    return c


def field_from_spec(text: str) -> Field:
    """Resolve the CLI/file field syntax: ``q`` or ``gf:<p>``."""
    text = text.strip().lower()
    if text == "q":
        return QQ
    if text.startswith("gf:"):
        body = text[3:]
        if not is_ascii_digits(body):
            raise FormatError(f"bad field spec: {text!r}")
        return _prime_field(parse_integer(body))
    raise FormatError(f"bad field spec: {text!r} (use 'q' or 'gf:<prime>')")


@lru_cache(maxsize=64)
def _prime_field(modulus: int) -> PrimeField:
    # a field is immutable, so one per modulus runs Miller-Rabin once; a
    # rejected modulus raises, which lru_cache never stores
    return PrimeField(modulus)


def field_of(element) -> Field:
    """The field an element belongs to."""
    if isinstance(element, Fraction):
        return QQ
    if isinstance(element, PrimeFieldElement):
        return element.field
    raise FieldMismatch(f"not a field element: {element!r}")
