"""Cross-representation equivalence and the Hankel-rank rationality prober.

Every finite representation (closed form, pointed linear system, canonical
circuit, netlist) denotes exactly one rational stream, and closed forms are
canonical, so equality is read off them.  There is one path to that stream:
every representation but a stream gives its pointed linear system
(``to_linear_system``), whose single-output behaviour is the stream.  A state
q of a weighted automaton is given by its closed form,
``WeightedAutomaton.behaviour()[q]``.

For raw coefficient prefixes, the rank of the Hankel matrix
H[i][j] = prefix[i+j], read off the linear complexity with no elimination,
lower-bounds the dimension of the derivative-generated subspace; a rank
exceeding d rules out every linear system of dimension <= d, that is every
reduced p/q with linear complexity max(deg q, deg p + 1) <= d.  It does not
rule out every p/q with max(deg p, deg q) <= d: 1 + X = (1 + X)/1 has
linear complexity 2 and gets the verdict at d = 1.  Finite data never proves
non-rationality outright, so the prober reports a bounded verdict only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

from .circuit import CanonicalCircuit, Netlist
from .errors import DimensionMismatch, FieldMismatch, InsufficientPrefix, check_count
from .fields import field_of
from .linear_system import PointedLinearSystem
from .matrix import Matrix, solve
from .ratstream import RationalStream

Representation = Union[RationalStream, PointedLinearSystem, CanonicalCircuit, Netlist]


def to_rational(representation: Representation) -> RationalStream:
    """The unique rational stream a representation denotes: a stream itself,
    else the single-output behaviour of its pointed linear system."""
    if isinstance(representation, RationalStream):
        return representation
    if not isinstance(representation, PointedLinearSystem):
        representation = representation.to_linear_system()
    if representation.system.num_outputs != 1:
        raise DimensionMismatch("a stream representation needs a single-output system")
    return representation.behaviour()[0]


def equivalent(first: Representation, second: Representation) -> bool:
    return first_difference(first, second) is None


def first_difference(first: Representation, second: Representation) -> Optional[int]:
    """Index of the first differing coefficient, or None for equal closed forms
    (they are canonical); unequal ones part below L_a + L_b (L = max(deg q,
    deg p + 1)), a bound on the linear complexity of a - b."""
    a, b = to_rational(first), to_rational(second)
    if a.field != b.field:
        raise FieldMismatch("representations over different fields")
    if a == b:
        return None
    return next(i for i, (x, y) in enumerate(zip(a._terms(), b._terms())) if x != y)


@dataclass(frozen=True)
class RankReport:
    prefix_len: int
    hankel_size: int
    rank: int
    verdict: Optional[str] = None

    def render(self) -> str:
        lines = [
            f"prefix_len: {self.prefix_len}",
            f"hankel_size: {self.hankel_size}",
            f"rank: {self.rank}",
        ]
        if self.verdict is not None:
            lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines) + "\n"


def hankel_rank(prefix: Sequence, size: int) -> int:
    """Exact rank of the size x size Hankel matrix of the prefix.

    This lower-bounds the dimension of the smallest derivative-closed
    subspace containing the stream, and equals it for rational streams once
    the size is large enough.  The matrix is never built: for the m x m
    Hankel matrix of s_0..s_{2m-2}, rank = min(L, 2m - L), where L is the
    linear complexity of those 2m - 1 terms (Iohvidov's theory of Hankel
    ranks; Heinig and Rost), and Berlekamp-Massey's integer kernel gives L.
    """
    check_count(size, "hankel size")
    if size == 0:
        return 0
    if len(prefix) < 2 * size - 1:
        raise InsufficientPrefix(
            f"hankel size {size} needs at least {2 * size - 1} coefficients, "
            f"got {len(prefix)}"
        )
    field = field_of(prefix[0])
    _, length = field.integer_berlekamp_massey(*field.integers(prefix[: 2 * size - 1]))
    return min(length, 2 * size - length)


def nonrationality_probe(prefix: Sequence, bound: int) -> RankReport:
    """Check whether the prefix is consistent with rationality of degree <= bound.

    The verdict ``NotRationalBelowBound(d)`` means no linear system of
    dimension <= d produces this prefix: no reduced p/q with linear
    complexity max(deg q, deg p + 1) <= d does.  It is finite evidence, never
    a full non-rationality proof, and it is one-sided: a stream of linear
    complexity above d may still get ``RationalWitnessConsistent`` (X^2 at
    d = 1, whose first three coefficients 0, 0, 1 give a Hankel rank of 1).
    """
    check_count(bound, "claimed bound")
    if len(prefix) < 2 * bound + 1:
        raise InsufficientPrefix(
            f"probing bound {bound} needs at least {2 * bound + 1} coefficients, "
            f"got {len(prefix)}"
        )
    observed = hankel_rank(prefix, bound + 1)
    if observed > bound:
        verdict = f"NotRationalBelowBound({bound})"
    else:
        verdict = "RationalWitnessConsistent"
    return RankReport(len(prefix), bound + 1, observed, verdict)


def fit_recurrence(prefix: Sequence, max_order: int) -> Optional[Tuple]:
    """Minimal linear recurrence satisfied by the whole prefix, if any.

    Returns coefficients (c_0, ..., c_{n-1}) with
    prefix[t+n] = sum_i c_i * prefix[t+i] for every window, where the order n
    is the prefix's linear complexity L (from Berlekamp-Massey).  Returns ()
    for an all-zero prefix and None when L exceeds ``max_order`` or leaves no
    window (L >= len(prefix)).  When the prefix is shorter than 2L the
    coefficients are not unique; the one returned is ``solve``'s particular
    solution of the windowed system at order L, with free variables set to 0.
    Independent of the symbolic derivative chain by design.
    """
    check_count(max_order, "max_order")
    if not prefix:
        return ()
    field = field_of(prefix[0])
    _, order = field.integer_berlekamp_massey(*field.integers(prefix))
    if order > max_order or order >= len(prefix):
        return None
    window_count = len(prefix) - order
    rows = [[prefix[t + i] for i in range(order)] for t in range(window_count)]
    rhs = [prefix[t + order] for t in range(window_count)]
    solution = solve(Matrix(field, rows, cols=order), rhs)
    assert solution is not None, "the Berlekamp-Massey recurrence solves the windows"
    return solution
