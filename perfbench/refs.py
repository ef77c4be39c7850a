"""Reference computations, made apart from streamcalc.

Nothing here imports streamcalc.  Scalars are ``Fraction`` over Q and plain
ints in [0, p) over GF(p); polynomials are coefficient lists, ascending by
degree, with no trailing zeros.  The workloads reduce their generated inputs
with these routines and check every program output against them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence

# A word-size prime (2^61 - 1), so GF(p) scalars stay below 64 bits.
WORD_PRIME = (1 << 61) - 1


class Arith:
    """Scalar arithmetic of one field: Q when ``p`` is None, else GF(p)."""

    def __init__(self, p: Optional[int] = None):
        self.p = p
        self.name = "q" if p is None else "gf"

    def __call__(self, x):
        """Map an int (or, over Q, a Fraction) into the field."""
        return Fraction(x) if self.p is None else x % self.p

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else a * b % self.p

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("reference division by zero")
        return a / b if self.p is None else a * pow(b, -1, self.p) % self.p

    def neg(self, a):
        return -a if self.p is None else -a % self.p


# --- polynomials ---------------------------------------------------------


def trim(a: Sequence) -> List:
    out = list(a)
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_add(ar: Arith, a: Sequence, b: Sequence) -> List:
    n = max(len(a), len(b))
    return trim(
        ar.add(a[i] if i < len(a) else 0, b[i] if i < len(b) else 0) for i in range(n)
    )


def poly_mul(ar: Arith, a: Sequence, b: Sequence) -> List:
    if not a or not b:
        return []
    out = [ar(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = ar.add(out[i + j], ar.mul(x, y))
    return trim(out)


def poly_pow(ar: Arith, a: Sequence, k: int) -> List:
    out = [ar(1)]
    for _ in range(k):
        out = poly_mul(ar, out, a)
    return out


def poly_divmod(ar: Arith, a: Sequence, b: Sequence):
    b = trim(b)
    if not b:
        raise ZeroDivisionError("reference polynomial division by zero")
    rem = list(trim(a))
    quo = [ar(0)] * max(len(rem) - len(b) + 1, 0)
    while len(rem) >= len(b):
        factor = ar.div(rem[-1], b[-1])
        shift = len(rem) - len(b)
        quo[shift] = factor
        for j, c in enumerate(b):
            rem[shift + j] = ar.sub(rem[shift + j], ar.mul(factor, c))
        rem = trim(rem[:-1])
    return trim(quo), rem


def poly_gcd(ar: Arith, a: Sequence, b: Sequence) -> List:
    """Monic greatest common divisor by Euclid's algorithm."""
    a, b = trim(a), trim(b)
    while b:
        a, b = b, poly_divmod(ar, a, b)[1]
    if not a:
        return []
    lead = a[-1]
    return [ar.div(c, lead) for c in a]


def reduce_quotient(ar: Arith, p: Sequence, q: Sequence):
    """p/q in lowest terms with q(0) = 1; q(0) must be nonzero."""
    g = poly_gcd(ar, p, q)
    if len(g) > 1:
        p, q = poly_divmod(ar, p, g)[0], poly_divmod(ar, q, g)[0]
    unit = q[0]
    return [ar.div(c, unit) for c in trim(p)], [ar.div(c, unit) for c in trim(q)]


# --- streams -------------------------------------------------------------


def series(ar: Arith, p: Sequence, q: Sequence, n: int) -> List:
    """First n power-series coefficients of p/q, by q's own recurrence."""
    q0 = q[0]
    out: List = []
    for i in range(n):
        acc = p[i] if i < len(p) else ar(0)
        for j in range(1, min(i, len(q) - 1) + 1):
            acc = ar.sub(acc, ar.mul(q[j], out[i - j]))
        out.append(ar.div(acc, q0))
    return out


def convolve(ar: Arith, a: Sequence, b: Sequence, n: int) -> List:
    """First n coefficients of the Cauchy product of two prefixes."""
    out = []
    for k in range(n):
        acc = ar(0)
        for i in range(k + 1):
            acc = ar.add(acc, ar.mul(a[i], b[k - i]))
        out.append(acc)
    return out


def mat_vec(ar: Arith, m: Sequence[Sequence], v: Sequence) -> List:
    out = []
    for row in m:
        acc = ar(0)
        for x, y in zip(row, v):
            acc = ar.add(acc, ar.mul(x, y))
        out.append(acc)
    return out


def output_sequence(ar: Arith, f: Sequence[Sequence], h: Sequence, v: Sequence, n: int) -> List:
    """The outputs H F^t v for t < n of a single-output linear system."""
    out = []
    state = list(v)
    for _ in range(n):
        out.append(mat_vec(ar, [h], state)[0])
        state = mat_vec(ar, f, state)
    return out


def shift_realization(ar: Arith, q: Sequence, head: Sequence):
    """A system whose output is the stream with denominator q and first terms head.

    The state at time t is (s_t, ..., s_{t+n-1}); the last row of the
    transition is q's recurrence.  Valid when deg p < deg q = n.
    """
    n = len(q) - 1
    f = [[ar(1) if j == i + 1 else ar(0) for j in range(n)] for i in range(n - 1)]
    f.append([ar.neg(ar.div(q[n - j], q[0])) for j in range(n)])
    h = [ar(1)] + [ar(0)] * (n - 1)
    return f, h, list(head[:n])


# --- determinants --------------------------------------------------------


def det(ar: Arith, rows: Sequence[Sequence]):
    """Determinant by Gaussian elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    result = ar(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return ar(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            result = ar.neg(result)
        result = ar.mul(result, m[col][col])
        for r in range(col + 1, n):
            factor = ar.div(m[r][col], m[col][col])
            if factor != 0:
                m[r] = [ar.sub(a, ar.mul(factor, b)) for a, b in zip(m[r], m[col])]
    return result


def hankel_det(ar: Arith, prefix: Sequence, size: int):
    """Determinant of the leading size x size Hankel matrix prefix[i + j]."""
    return det(ar, [[prefix[i + j] for j in range(size)] for i in range(size)])


def satisfies_recurrence(ar: Arith, prefix: Sequence, coeffs: Sequence) -> bool:
    """Whether prefix[t+d] = sum_i coeffs[i] * prefix[t+i] on every window."""
    d = len(coeffs)
    for t in range(len(prefix) - d):
        acc = ar(0)
        for i, c in enumerate(coeffs):
            acc = ar.add(acc, ar.mul(c, prefix[t + i]))
        if acc != prefix[t + d]:
            return False
    return True
