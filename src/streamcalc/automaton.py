"""Weighted stream automata: path-sum semantics and the closed form.

States carry scalar outputs and weighted transitions (weight 0 means the
transition is absent).  The stream represented by a state has, at index k,
the sum over all length-k transition paths of the product of the weights
times the output of the final state, which is entry q of W^k o for the weight
matrix W and the output vector o.  In closed form the streams are the
resolvent (I - X W)^-1 applied to o; they are computed from the first 2n
vectors W^k o through Berlekamp-Massey, with no arithmetic over k(X).  A
linear system with a standard-basis initial state converts to an automaton by
transposition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .errors import (
    DimensionMismatch,
    FormatError,
    ShapeMismatch,
    UnsupportedInitialVector,
)
from .fields import Field, field_from_spec
from .linear_system import LinearSystem, PointedLinearSystem, is_first_basis_vector
from .matrix import Matrix
from .ratstream import RationalStream


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
        Zero-weight edges contribute nothing and are skipped.
        """
        self._check_state(state)
        if length < 0:
            raise ValueError("path length must be nonnegative")
        zero = self.field.zero()
        total = zero

        def walk(q: int, remaining: int, acc):
            nonlocal total
            if remaining == 0:
                total = total + acc * self.outputs[q]
                return
            for q2 in range(self.size):
                weight = self.weights.entries[q][q2]
                if weight != zero:
                    walk(q2, remaining - 1, acc * weight)

        walk(state, length, self.field.one())
        return total

    def behaviour(self) -> Tuple[RationalStream, ...]:
        """Closed form for every state: resolvent of the weights at the outputs.

        State q's stream has coefficients (W^k o)_q and linear complexity at
        most ``size``, so the first 2 * size iterates determine every state.
        """
        iterates = []
        vector = self.outputs
        for _ in range(2 * self.size):
            iterates.append(vector)
            vector = self.weights.apply(vector)
        return tuple(
            RationalStream.from_sequence(self.field, [v[q] for v in iterates])
            for q in range(self.size)
        )

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
        output = Matrix.row_vector(field, self.outputs)
        zero, one = field.zero(), field.one()
        initial = tuple(one if i == state else zero for i in range(self.size))
        return PointedLinearSystem(
            LinearSystem(self.weights.transpose(), output), initial
        )


def format_automaton(automaton: WeightedAutomaton) -> str:
    """Automaton file format; zero outputs and absent transitions are omitted."""
    field = automaton.field
    zero = field.zero()
    lines = [f"field {field.spec()}", f"states {automaton.size}"]
    for i, out in enumerate(automaton.outputs):
        if out != zero:
            lines.append(f"out {i + 1} {field.format(out)}")
    for i in range(automaton.size):
        for j in range(automaton.size):
            weight = automaton.weights.entries[i][j]
            if weight != zero:
                lines.append(f"edge {i + 1} {j + 1} {field.format(weight)}")
    return "\n".join(lines) + "\n"


def parse_automaton(text: str) -> WeightedAutomaton:
    field: Field = field_from_spec("q")
    size = None
    outputs: Dict[int, object] = {}
    edges: Dict[Tuple[int, int], object] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition(" ")
        parts = rest.split()
        if head == "field":
            field = field_from_spec(rest.strip())
        elif head == "states":
            if size is not None:
                raise FormatError("duplicate states line")
            if len(parts) != 1 or not parts[0].isdigit():
                raise FormatError(f"bad states line: {line!r}")
            size = int(parts[0])
        elif head == "out":
            if len(parts) != 2:
                raise FormatError(f"bad out line: {line!r}")
            index = _state_index(parts[0], size)
            if index in outputs:
                raise FormatError(f"duplicate out line for state {parts[0]}")
            outputs[index] = field.parse(parts[1])
        elif head == "edge":
            if len(parts) != 3:
                raise FormatError(f"bad edge line: {line!r}")
            src = _state_index(parts[0], size)
            dst = _state_index(parts[1], size)
            if (src, dst) in edges:
                raise FormatError(f"duplicate edge {parts[0]} -> {parts[1]}")
            edges[(src, dst)] = field.parse(parts[2])
        else:
            raise FormatError(f"unknown automaton line: {line!r}")
    if size is None:
        raise FormatError("automaton file has no states line")
    zero = field.zero()
    out_vec = tuple(outputs.get(i, zero) for i in range(size))
    weight_rows = [
        [edges.get((i, j), zero) for j in range(size)] for i in range(size)
    ]
    return WeightedAutomaton(out_vec, Matrix(field, weight_rows, cols=size))


def _state_index(token: str, size) -> int:
    if not token.isdigit() or int(token) < 1:
        raise FormatError(f"state indices are 1-based integers, got {token!r}")
    index = int(token) - 1
    if size is None:
        raise FormatError("out/edge line before the states line")
    if index >= size:
        raise FormatError(f"state {token} exceeds the declared state count")
    return index
