"""Finite-dimensional linear systems with outputs, and their stream behaviour.

A system is a state space k^n with an n x n transition matrix and an m x n
output matrix.  Its behaviour at a state v is the vector of rational streams
H (I - X F)^-1 v, computed without arithmetic over k(X): by Cayley-Hamilton
each output stream has linear complexity at most n, so its first 2n
coefficients H F^t v determine it through Berlekamp-Massey, the one backward
recurrence (``CoordinateStreams``).  Longer prefixes are those closed forms'
coefficients, made by the one forward recurrence, ``RationalStream._terms``.

Every iteration of a matrix goes through the one kernel
:meth:`Matrix.integer_orbit`, whose terms are integers over a denominator:
the outputs are H on F's orbit, read off its integers, the observability
rows are the orbits of H's rows under F transposed, and state equivalence
tests the outputs of a difference of states for zero.  Only the public
answers are boxed, once: ``step_outputs`` up to 2n by ``Matrix.orbit``,
``observability_matrix`` by ``ratios``.  ``behaviour`` hands the outputs'
integers to Berlekamp-Massey (``CoordinateStreams``), and ``minimize``
hands the observability rows' integers to the elimination
(``matrix._eliminate``) and boxes each row of the minimal system once.
Every other
finite representation reaches its stream through this module's pointed
systems (``to_linear_system``).  This module also reads the minimal
realization of a vector of rational streams off their closed forms, as the
companion matrix of the derivative's minimal polynomial, minimizes a given
system through its observability matrix, and moves an initial state v to e_1
by the basis completion of v, which is explicit in v.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import List, Sequence, Tuple, Union

from .errors import (
    FieldMismatch,
    FormatError,
    ShapeMismatch,
    UnsupportedInitialVector,
    check_count,
)
from .fields import Field, field_from_spec
from .matrix import (
    Matrix,
    _eliminate,
    format_matrix,
    format_vector,
    inverse,
    parse_matrix,
    parse_vector,
)
from .poly import Polynomial
from .ratstream import CoordinateStreams, RationalStream
from .records import read_dimension, read_records


@dataclass(frozen=True)
class LinearSystem:
    """State space k^n with dynamics (n x n) and output map (m x n)."""

    dynamics: Matrix
    output: Matrix

    def __post_init__(self):
        if self.dynamics.rows != self.dynamics.cols:
            raise ShapeMismatch("dynamics matrix must be square")
        if self.output.cols != self.dynamics.rows:
            raise ShapeMismatch("output matrix width must match the dimension")
        if self.output.rows < 1:
            raise ShapeMismatch("at least one output row is required")
        if self.output.domain != self.dynamics.domain:
            raise FieldMismatch("dynamics and output over different fields")

    @property
    def field(self) -> Field:
        return self.dynamics.domain

    @property
    def dim(self) -> int:
        return self.dynamics.rows

    @property
    def num_outputs(self) -> int:
        return self.output.rows

    def behaviour(self, state: Sequence) -> Sequence[RationalStream]:
        """The stream vector emitted from ``state``: output o resolvent o state.

        Each output stream has linear complexity at most ``dim``, so its first
        2 * dim coefficients H F^t state determine it.  They stay in the
        orbit's integer form, and each output's closed form is fitted on them
        the first time it is read (``CoordinateStreams``).
        """
        outputs = self.dynamics.integer_orbit(state, 2 * self.dim, self.output)
        return CoordinateStreams(self.field, outputs, self.num_outputs)

    def step_outputs(self, state: Sequence, steps: int) -> List[Tuple]:
        """The first ``steps`` output vectors H F^t state: H on F's orbit up to
        2 * dim, past that the coefficients of ``behaviour``'s closed forms
        (exact by Cayley-Hamilton)."""
        check_count(steps, "number of steps")
        if steps <= 2 * self.dim:
            return self.dynamics.orbit(state, steps, self.output)
        return list(zip(*(s.expand(steps) for s in self.behaviour(state))))


@dataclass(frozen=True)
class PointedLinearSystem:
    """A linear system with a designated initial state."""

    system: LinearSystem
    initial: Tuple

    def __post_init__(self):
        coerced = tuple(self.system.field.coerce(v) for v in self.initial)
        if len(coerced) != self.system.dim:
            raise ShapeMismatch("initial state length must equal the dimension")
        object.__setattr__(self, "initial", coerced)

    @property
    def field(self) -> Field:
        return self.system.field

    @property
    def dim(self) -> int:
        return self.system.dim

    def behaviour(self) -> Sequence[RationalStream]:
        return self.system.behaviour(self.initial)

    def step_outputs(self, steps: int) -> List[Tuple]:
        return self.system.step_outputs(self.initial, steps)


def at_least_one_state(pointed: PointedLinearSystem) -> PointedLinearSystem:
    """``pointed``, or for a stateless system (its streams are all 0) the
    one-state system with transition 0, outputs 0 and initial state e_1.

    Canonical circuits and automata need a state, so the zero stream is
    synthesized from the latter.
    """
    if pointed.dim:
        return pointed
    field = pointed.field
    zero = [field.zero()]
    output = Matrix(field, [zero] * pointed.system.num_outputs, cols=1)
    return PointedLinearSystem(LinearSystem(Matrix(field, [zero]), output), (field.one(),))


def realize(streams: Sequence[RationalStream]) -> PointedLinearSystem:
    """Minimal linear representation of a vector of rational streams.

    The states are the derivative vectors s, s', ..., s^(n-1), a basis of the
    span of all derivatives.  The derivative acts on that span with minimal
    polynomial ``minimal``: the lcm over the components p/q of
    X^(L - deg q) * rev(q) with L = max(deg q, deg p + 1), monic because
    q(0) = 1.  So n = deg ``minimal``, the transition is its companion matrix
    (subdiagonal 1s, -minimal_i in the last column), output row i holds the
    first n coefficients of stream i, and the initial state is e_1.
    """
    streams = tuple(streams)
    if not streams:
        raise ShapeMismatch("realize needs at least one stream")
    field = streams[0].field
    for s in streams:
        if s.field != field:
            raise FieldMismatch("streams over different fields")
    zero, one = field.zero(), field.one()
    annihilators = (  # the padding is L - deg q
        Polynomial._make(field, [zero] * max(0, s.num.degree + 1 - s.den.degree) + [*s.den.coeffs[::-1]])
        for s in streams
    )
    minimal = next(annihilators)  # one stream needs no lcm
    for annihilator in annihilators:
        minimal = minimal * (annihilator // minimal.gcd(annihilator))
    n = minimal.degree
    transition = Matrix(
        field,
        (
            [one if j == i - 1 else zero for j in range(n - 1)] + [-minimal.coeffs[i]]
            for i in range(n)
        ),
        cols=n,
    )
    output = Matrix(field, (s.expand(n) for s in streams), cols=n)
    initial = tuple(one if i == 0 else zero for i in range(n))
    return PointedLinearSystem(LinearSystem(transition, output), initial)


def _observability_rows(system: LinearSystem) -> List[Tuple[List[int], int]]:
    """The rows of the blocks H F^t for t < dim in the integer form, each
    (ints, g): row i of block t is step t of the orbit of H's row i under F
    transposed."""
    n, transposed = system.dim, system.dynamics.transpose()
    orbits = [transposed.integer_orbit(row, n) for row in system.output.entries]
    return [orbit[t] for t in range(n) for orbit in orbits]


def observability_matrix(system: LinearSystem) -> Matrix:
    """Blocks H F^t for t < dim, each row step t of an orbit under F transposed."""
    ratios = system.field.ratios
    rows = (ratios(w, g) for w, g in _observability_rows(system))
    return Matrix(system.field, rows, cols=system.dim)


def states_equivalent(system: LinearSystem, first: Sequence, second: Sequence) -> bool:
    """Whether two states have the same behaviour: H F^t (a - b) = 0 for t < dim,
    tested on the orbit's integers."""
    field = system.field
    a = tuple(field.coerce(v) for v in first)
    b = tuple(field.coerce(v) for v in second)
    if len(a) != system.dim or len(b) != system.dim:
        raise ShapeMismatch("state vectors must match the dimension")
    diff = tuple(x - y for x, y in zip(a, b))
    p = field.characteristic
    outputs = system.dynamics.integer_orbit(diff, system.dim, system.output)
    return not any(v % p if p else v for ints, _ in outputs for v in ints)


def minimize(pointed: PointedLinearSystem) -> PointedLinearSystem:
    """Quotient by unobservable states; behaviour at the mapped point is kept.

    The reduced state space is the row space of the observability matrix,
    eliminated as the orbit's integers (a row over its denominator g spans
    what the row of integers spans).  A matrix whose rows are the nonzero
    rows of its reduced echelon form projects states onto it, and because
    the rows are in echelon form the reduced dynamics and output are read
    off at the pivot columns: entry (i, c) of the dynamics is projection
    row i times F's pivot column c.  Row i of the projection is the
    integer row r_i over its pivot a_i, so with dF and e v in the integer
    form, dynamics row i is the integer dots of r_i with dF's pivot columns
    over a_i d, and initial entry i is r_i . e v over a_i e, each boxed once.
    """
    system = pointed.system
    field, n = system.field, system.dim
    rows, pivots = _eliminate(field, [ints for ints, _ in _observability_rows(system)], n)
    r = len(pivots)
    if r == n:
        return pointed
    flat, d = field.integers(e for row in system.dynamics.entries for e in row)
    columns = [flat[c::n] for c in pivots]
    state, e = field.integers(pointed.initial)
    dynamics, initial = [], []
    for row, c in zip(rows, pivots):
        a = row[c]
        dynamics.append(field.ratios([sum(map(mul, row, column)) for column in columns], a * d))
        initial.append(field.ratio(sum(map(mul, row, state)), a * e))
    output = Matrix(field, ((row[p] for p in pivots) for row in system.output.entries), cols=r)
    return PointedLinearSystem(LinearSystem(Matrix(field, dynamics, cols=r), output), tuple(initial))


def change_basis(pointed: PointedLinearSystem, transform: Matrix) -> PointedLinearSystem:
    """Conjugate the system by an invertible matrix T: states map as T*state."""
    if transform.rows != pointed.dim or transform.cols != pointed.dim:
        raise ShapeMismatch("basis change must be square of the system dimension")
    return _conjugate(pointed, transform, inverse(transform))


def _conjugate(pointed: PointedLinearSystem, transform: Matrix, inv: Matrix):
    system = pointed.system
    return PointedLinearSystem(
        LinearSystem(transform * system.dynamics * inv, system.output * inv),
        transform.apply(pointed.initial),
    )


def is_first_basis_vector(field: Field, vector: Sequence) -> bool:
    vec = tuple(field.coerce(v) for v in vector)
    return bool(vec) and vec[0] == field.one() and not any(vec[1:])


def standardize_initial_state(pointed: PointedLinearSystem) -> PointedLinearSystem:
    """Change basis so the initial state becomes (1, 0, ..., 0).

    The new basis B is the greedy completion of v to a basis, explicit in v:
    v, then e_j for every j but the last index l with v_l != 0.  Its inverse
    has rows e_l / v_l, then e_j - (v_j / v_l) e_l.
    """
    field, v = pointed.field, pointed.initial
    if is_first_basis_vector(field, v):
        return pointed
    zero, one = field.zero(), field.one()
    nonzero = [i for i, x in enumerate(v) if x]
    if not nonzero:
        raise UnsupportedInitialVector("zero initial state spans no direction")
    n, last = pointed.dim, nonzero[-1]
    others, scale = [j for j in range(n) if j != last], field.inv(v[last])
    columns = [v] + [[one if i == j else zero for i in range(n)] for j in others]
    rows = [[scale if i == last else zero for i in range(n)]] + [
        [one if i == j else -v[j] * scale if i == last else zero for i in range(n)] for j in others
    ]
    return _conjugate(pointed, Matrix(field, rows, cols=n), Matrix(field, zip(*columns), cols=n))


SystemLike = Union[LinearSystem, PointedLinearSystem]


def format_system(obj: SystemLike) -> str:
    """System file format: field / n / m / F / H / optional v0 lines."""
    pointed = obj if isinstance(obj, PointedLinearSystem) else None
    system = pointed.system if pointed else obj
    field = system.field
    lines = [
        f"field {field.spec()}",
        f"n {system.dim}",
        f"m {system.num_outputs}",
    ]
    if system.dim > 0:
        lines.append(f"F {format_matrix(system.dynamics)}")
        lines.append(f"H {format_matrix(system.output)}")
    if pointed is not None:
        rendered = format_vector(field, pointed.initial)
        lines.append(f"v0 {rendered}" if rendered else "v0")
    return "\n".join(lines) + "\n"


def parse_state(field: Field, text: str, n: int) -> Tuple:
    """A state of an n-dimensional system as a ``v0`` line or ``system:<file>@v``
    writes it: comma-separated scalars, the empty text for n 0."""
    state = parse_vector(field, text) if text else ()
    if len(state) != n:
        raise FormatError(f"state of length {len(state)} disagrees with n {n}")
    return state


def parse_system(text: str) -> SystemLike:
    entries, _ = read_records(text, ("field", "n", "m"), ("F", "H", "v0"))
    line, spec = entries["field"]
    try:
        field = field_from_spec(spec)
        line, value = entries["n"]
        n = read_dimension("n", value)
        if n and ("F" not in entries or "H" not in entries):
            raise FormatError(f"n {n} needs F and H lines")
        line, value = entries["m"]
        m = read_dimension("m", value, least=1)
        if n == 0:
            for key in ("F", "H"):
                if key in entries:
                    line = entries[key][0]
                    raise FormatError(f"n 0 takes no {key} line")
            dynamics = Matrix.zero(field, 0, 0)
            output = Matrix.zero(field, m, 0)
        else:
            line, value = entries["F"]
            dynamics = parse_matrix(field, value)
            if dynamics.rows != n or dynamics.cols != n:
                raise FormatError("F dimensions disagree with n")
            line, value = entries["H"]
            output = parse_matrix(field, value)
            if output.rows != m or output.cols != n:
                raise FormatError("H dimensions disagree with n, m")
        system = LinearSystem(dynamics, output)
        if "v0" not in entries:
            return system
        line, value = entries["v0"]
        initial = parse_state(field, value, n)
    except FormatError as exc:
        raise exc.at(line)
    return PointedLinearSystem(system, initial)
