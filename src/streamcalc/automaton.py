"""Weighted stream automata: path-sum semantics and the closed form.

States carry scalar outputs and weighted transitions (weight 0 means the
transition is absent).  The stream represented by a state has, at index k,
the sum over all length-k transition paths of the product of the weights
times the output of the final state, which is entry q of W^k o for the weight
matrix W and the output vector o.  In closed form the streams are the
resolvent (I - X W)^-1 applied to o; they are computed from the first 2n
vectors W^k o, o's orbit under W in its integer form
(``Matrix.integer_orbit``), through Berlekamp-Massey on those integers, with
no arithmetic over k(X) and no term boxed.  A linear system with a standard-basis initial
state converts to an automaton by transposition, and back:
``to_linear_system(q)`` is the pointed system of state q.  State q's stream
is ``behaviour()[q]``, which fits that state alone.  ``path_sum`` enumerates
paths on an explicit stack and stays the independent oracle, capped at
``MAX_PATHS`` path prefixes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from .errors import (
    DimensionMismatch,
    FormatError,
    ShapeMismatch,
    StreamCalcError,
    UnsupportedInitialVector,
    check_count,
)
from .fields import Field, field_from_spec
from .linear_system import LinearSystem, PointedLinearSystem, is_first_basis_vector
from .matrix import Matrix
from .ratstream import CoordinateStreams, RationalStream
from .records import read_dimension, read_records

# path prefixes ``path_sum`` pops before it gives up: well above the few
# thousand its uses as an oracle need, and a fraction of a second of work
MAX_PATHS = 2 ** 16


@dataclass(frozen=True)
class WeightedAutomaton:
    """Outputs per state and a dense n x n weight matrix."""

    outputs: Tuple
    weights: Matrix

    def __post_init__(self):
        if self.weights.rows != self.weights.cols:
            raise ShapeMismatch("weight matrix must be square")
        coerced = tuple(self.field.coerce(v) for v in self.outputs)
        if len(coerced) != self.weights.rows:
            raise ShapeMismatch("output vector length must match the state count")
        object.__setattr__(self, "outputs", coerced)

    @property
    def field(self) -> Field:
        return self.weights.domain

    @property
    def size(self) -> int:
        return self.weights.rows

    def _check_state(self, state: int):
        if not 0 <= state < self.size:
            raise ShapeMismatch(f"no state with index {state}")

    def path_sum(self, state: int, length: int):
        """Brute-force semantics: enumerate every length-k path explicitly.

        Exponential in ``length``; intended as an oracle at desk scale.
        Zero-weight edges contribute nothing and are skipped.  Past
        ``MAX_PATHS`` path prefixes it raises :class:`StreamCalcError`
        instead of running on; the closed form has the same coefficients.
        """
        self._check_state(state)
        check_count(length, "path length")
        total = self.field.zero()
        # (state, steps left, weight so far) of each path prefix still to extend
        pending = [(state, length, self.field.one())]
        popped = 0
        while pending:
            popped += 1
            if popped > MAX_PATHS:
                raise StreamCalcError(
                    f"path enumeration stopped after {MAX_PATHS} path prefixes; "
                    "the closed form gives the same coefficients"
                )
            q, remaining, acc = pending.pop()
            if remaining == 0:
                total = total + acc * self.outputs[q]
                continue
            for q2 in reversed(range(self.size)):
                weight = self.weights.entries[q][q2]
                if weight:
                    pending.append((q2, remaining - 1, acc * weight))
        return total

    def behaviour(self) -> Sequence[RationalStream]:
        """Closed form for every state: resolvent of the weights at the outputs.

        State q's stream has coefficients (W^k o)_q and linear complexity at
        most ``size``, so the first 2 * size iterates determine every state.
        The orbit is made here, in its integer form; each state's closed form
        is fitted on it the first time it is read (``CoordinateStreams``), so
        ``behaviour()[0]`` fits one state, and a caller that reads every
        state gains nothing.
        """
        iterates = self.weights.integer_orbit(self.outputs, 2 * self.size)
        return CoordinateStreams(self.field, iterates, self.size)

    @classmethod
    def from_linear_system(cls, pointed: PointedLinearSystem) -> "WeightedAutomaton":
        """Transpose construction; state 0 then represents the behaviour.

        Requires a single output row and the first standard basis vector as
        the initial state (as produced by ``realize``); apply
        ``standardize_initial_state`` first otherwise.
        """
        if pointed.system.num_outputs != 1:
            raise DimensionMismatch("automaton conversion needs a single output")
        if not is_first_basis_vector(pointed.field, pointed.initial):
            raise UnsupportedInitialVector(
                "initial state must be the first standard basis vector"
            )
        outputs = tuple(pointed.system.output.entries[0])
        return cls(outputs, pointed.system.dynamics.transpose())

    def to_linear_system(self, state: int) -> PointedLinearSystem:
        """Inverse transposition, pointed at the basis vector of ``state``."""
        self._check_state(state)
        field = self.field
        output = Matrix(field, [self.outputs], cols=self.size)
        zero, one = field.zero(), field.one()
        initial = tuple(one if i == state else zero for i in range(self.size))
        return PointedLinearSystem(
            LinearSystem(self.weights.transpose(), output), initial
        )


def format_automaton(automaton: WeightedAutomaton) -> str:
    """Automaton file format; zero outputs and absent transitions are omitted."""
    field = automaton.field
    lines = [f"field {field.spec()}", f"states {automaton.size}"]
    for i, out in enumerate(automaton.outputs):
        if out:
            lines.append(f"out {i + 1} {field.format(out)}")
    for i in range(automaton.size):
        for j in range(automaton.size):
            weight = automaton.weights.entries[i][j]
            if weight:
                lines.append(f"edge {i + 1} {j + 1} {field.format(weight)}")
    return "\n".join(lines) + "\n"


def parse_automaton(text: str) -> WeightedAutomaton:
    header, lines = read_records(text, ("states",), ("field",), ("out", "edge"))
    line, spec = header.get("field", (None, "q"))
    try:
        field = field_from_spec(spec)
        line, value = header["states"]
        states_line = line
        size = read_dimension("states", value)
        state_of = {str(q + 1): q for q in range(size)}
        entries: Dict[Tuple, object] = {}
        for line, key, value in lines:
            if line < states_line:
                raise FormatError(f"{key} line before the states line")
            parts = value.split()
            index = (key, *[state_of.get(i.lstrip("0"), -1) for i in parts[:-1]])
            if len(index) != (2 if key == "out" else 3) or -1 in index:
                raise FormatError(f"bad {key} line: {key} {value} (states are 1..{size})")
            if index in entries:
                raise FormatError(f"repeated {key} {' '.join(parts[:-1])}")
            entries[index] = field.parse(parts[-1])
    except FormatError as exc:
        raise exc.at(line)
    zero = field.zero()
    outputs = tuple(entries.get(("out", i), zero) for i in range(size))
    weights = ([entries.get(("edge", i, j), zero) for j in range(size)] for i in range(size))
    return WeightedAutomaton(outputs, Matrix(field, weights, cols=size))

