"""Stream circuits: gate-level netlists and the canonical register form.

A netlist is a closed synchronous circuit built from multipliers, registers,
adders and copiers.  Each tick, registers emit their stored values, the
combinational gates are evaluated in topological order, the designated output
port is sampled, and then every register latches its freshly computed input
simultaneously.  A canonical circuit is the dense description (feedback
matrix, feedforward row, register seeds); its closed-form behaviour is the
feedforward row applied to the resolvent of the feedback matrix at the seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple, Union

from .errors import (
    DimensionMismatch,
    FormatError,
    IllFormedCircuit,
    ShapeMismatch,
)
from .fields import Field, field_from_spec, is_ascii_digits, parse_integer
from .linear_system import LinearSystem, PointedLinearSystem
from .matrix import Matrix, format_matrix, format_vector, parse_matrix, parse_vector
from .ratstream import RationalStream
from .records import content_lines, read_records


@dataclass(frozen=True)
class Multiplier:
    factor: object


@dataclass(frozen=True)
class Register:
    initial: object


@dataclass(frozen=True)
class Adder:
    arity: int


@dataclass(frozen=True)
class Copier:
    fanout: int


Gate = Union[Multiplier, Register, Adder, Copier]
Port = Tuple[str, int]  # (gate id, port index)
Wire = Tuple[Port, Port]  # source output port -> destination input port


def input_count(gate: Gate) -> int:
    if isinstance(gate, Adder):
        return gate.arity
    return 1


def output_count(gate: Gate) -> int:
    if isinstance(gate, Copier):
        return gate.fanout
    return 1


class Netlist:
    """A closed, well-formed gate graph with one designated output port.

    Well-formedness is checked eagerly: every input port is driven exactly
    once, every output port feeds exactly one input port except the designated
    output (which feeds none), arities are respected, and cutting the
    registers leaves the combinational graph acyclic.
    """

    def __init__(self, field: Field, gates: Dict[str, Gate], wires: Iterable[Wire], output: Port):
        self.field = field
        self.gates = dict(gates)
        self.wires = tuple((tuple(src), tuple(dst)) for src, dst in wires)
        self.output = tuple(output)
        self._drivers: Dict[Port, Port] = {}
        self._validate()
        self._order = self._topological_order()

    def _validate(self):
        for name, gate in self.gates.items():
            if isinstance(gate, Adder) and gate.arity < 2:
                raise IllFormedCircuit(f"adder {name} needs arity >= 2")
            if isinstance(gate, Copier) and gate.fanout < 2:
                raise IllFormedCircuit(f"copier {name} needs fanout >= 2")
        consumers: Dict[Port, int] = {}
        for src, dst in self.wires:
            for kind, (gid, idx) in (("source", src), ("destination", dst)):
                if gid not in self.gates:
                    raise IllFormedCircuit(f"wire {kind} references unknown gate {gid}")
            src_gid, src_idx = src
            dst_gid, dst_idx = dst
            if not 0 <= src_idx < output_count(self.gates[src_gid]):
                raise IllFormedCircuit(f"gate {src_gid} has no output port {src_idx}")
            if not 0 <= dst_idx < input_count(self.gates[dst_gid]):
                raise IllFormedCircuit(f"gate {dst_gid} has no input port {dst_idx}")
            if dst in self._drivers:
                raise IllFormedCircuit(f"input port {dst_gid}.in{dst_idx} driven twice")
            self._drivers[dst] = src
            consumers[src] = consumers.get(src, 0) + 1
        out_gid, out_idx = self.output
        if out_gid not in self.gates:
            raise IllFormedCircuit(f"output references unknown gate {out_gid}")
        if not 0 <= out_idx < output_count(self.gates[out_gid]):
            raise IllFormedCircuit(f"gate {out_gid} has no output port {out_idx}")
        for name, gate in self.gates.items():
            for idx in range(input_count(gate)):
                if (name, idx) not in self._drivers:
                    raise IllFormedCircuit(f"dangling input port {name}.in{idx}")
            for idx in range(output_count(gate)):
                port = (name, idx)
                count = consumers.get(port, 0)
                if port == self.output:
                    if count != 0:
                        raise IllFormedCircuit(
                            f"designated output {name}.out{idx} must not be wired"
                        )
                elif count != 1:
                    raise IllFormedCircuit(
                        f"output port {name}.out{idx} must feed exactly one input"
                    )

    def _topological_order(self) -> List[str]:
        # registers are cut: their outputs are sources within a tick
        combinational = [
            name for name, gate in self.gates.items() if not isinstance(gate, Register)
        ]
        dependents: Dict[str, List[str]] = {name: [] for name in combinational}
        indegree = {name: 0 for name in combinational}
        for src, dst in self.wires:
            src_gid, dst_gid = src[0], dst[0]
            if isinstance(self.gates[src_gid], Register):
                continue
            if dst_gid in indegree:
                dependents[src_gid].append(dst_gid)
                indegree[dst_gid] += 1
        ready = [name for name, deg in indegree.items() if deg == 0]
        order = []
        while ready:
            name = ready.pop()
            order.append(name)
            for nxt in dependents[name]:
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    ready.append(nxt)
        if len(order) != len(combinational):
            raise IllFormedCircuit("combinational cycle (a loop must pass a register)")
        return order

    def simulate(self, steps: int) -> List:
        """Sample the designated output for ``steps`` synchronous ticks."""
        state = {
            name: self.field.coerce(gate.initial)
            for name, gate in self.gates.items()
            if isinstance(gate, Register)
        }
        samples = []
        for _ in range(steps):
            values: Dict[Port, object] = {}
            for name in state:
                values[(name, 0)] = state[name]
            for name in self._order:
                gate = self.gates[name]
                inputs = [
                    values[self._drivers[(name, idx)]]
                    for idx in range(input_count(gate))
                ]
                if isinstance(gate, Multiplier):
                    result = self.field.coerce(gate.factor) * inputs[0]
                    values[(name, 0)] = result
                elif isinstance(gate, Adder):
                    acc = inputs[0]
                    for v in inputs[1:]:
                        acc = acc + v
                    values[(name, 0)] = acc
                elif isinstance(gate, Copier):
                    for idx in range(gate.fanout):
                        values[(name, idx)] = inputs[0]
                else:  # pragma: no cover - registers are not in the order
                    raise AssertionError
            samples.append(values[self.output])
            # all registers latch simultaneously at tick end
            state = {
                name: values[self._drivers[(name, 0)]] for name in state
            }
        return samples

    def with_output_register(self, initial) -> "Netlist":
        """Insert one register in front of the output (delays the stream)."""
        name = "delay"
        while name in self.gates:
            name += "_"
        gates = dict(self.gates)
        gates[name] = Register(self.field.coerce(initial))
        wires = list(self.wires) + [(self.output, (name, 0))]
        return Netlist(self.field, gates, wires, (name, 0))

    def __eq__(self, other):
        if not isinstance(other, Netlist):
            return NotImplemented
        return (
            self.field == other.field
            and self.gates == other.gates
            and self.wires == other.wires
            and self.output == other.output
        )

    def __repr__(self):
        return (
            f"Netlist(field={self.field!r}, gates={len(self.gates)}, "
            f"wires={len(self.wires)}, output={self.output})"
        )


@dataclass(frozen=True)
class CanonicalCircuit:
    """n registers, n x n feedback matrix, 1 x n feedforward row, seeds."""

    feedback: Matrix
    feedforward: Matrix
    initial: Tuple

    def __post_init__(self):
        # shapes, fields and the seed length are the pointed system's checks
        pointed = self.to_linear_system()
        if self.registers < 1:
            raise DimensionMismatch("canonical form needs at least one register")
        if self.feedforward.rows != 1:
            raise ShapeMismatch("feedforward must be a 1 x n row")
        object.__setattr__(self, "initial", pointed.initial)

    @property
    def field(self) -> Field:
        return self.feedback.domain

    @property
    def registers(self) -> int:
        return self.feedback.rows

    def behaviour(self) -> RationalStream:
        """Closed-form output stream: feedforward o resolvent o seeds."""
        return self.to_linear_system().behaviour()[0]

    def to_linear_system(self) -> PointedLinearSystem:
        return PointedLinearSystem(
            LinearSystem(self.feedback, self.feedforward), self.initial
        )

    @classmethod
    def from_linear_system(cls, pointed: PointedLinearSystem) -> "CanonicalCircuit":
        if pointed.system.num_outputs != 1:
            raise DimensionMismatch("canonical circuits have a single output")
        if pointed.dim < 1:
            raise DimensionMismatch("canonical form needs dimension >= 1")
        return cls(pointed.system.dynamics, pointed.system.output, pointed.initial)

    def to_netlist(self) -> Netlist:
        """Expand to gates: registers, copiers, multiplier/adder rows.

        Zero matrix entries produce no multiplier (a 0-weighted edge is
        absence).  Degenerate shapes stay well formed: an all-zero feedback
        row or an unread register gets a 0-multiplier self-edge, and an
        all-zero feedforward row taps register 1 through a 0-multiplier.
        """
        field = self.field
        zero = field.zero()
        n = self.registers
        # feedback edges (row, source register, weight), plus fixups
        edges = [
            (i, j, self.feedback.entries[i][j])
            for i in range(n)
            for j in range(n)
            if self.feedback.entries[i][j] != zero
        ]
        for i in range(n):
            if not any(row == i for row, _, _ in edges):
                edges.append((i, i, zero))
        forward = [
            (j, self.feedforward.entries[0][j])
            for j in range(n)
            if self.feedforward.entries[0][j] != zero
        ]
        if not forward:
            forward = [(0, zero)]
        for j in range(n):
            used = any(src == j for _, src, _ in edges) or any(
                src == j for src, _ in forward
            )
            if not used:
                edges.append((j, j, zero))
        edges.sort(key=lambda e: (e[0], e[1]))

        gates: Dict[str, Gate] = {}
        wires: List[Wire] = []
        for i in range(n):
            gates[f"r{i + 1}"] = Register(self.initial[i])
        # hand out register output branches, through copiers where needed
        taps: Dict[int, List[Port]] = {}
        for j in range(n):
            uses = sum(1 for _, src, _ in edges if src == j) + sum(
                1 for src, _ in forward if src == j
            )
            if uses == 1:
                taps[j] = [(f"r{j + 1}", 0)]
            else:
                gates[f"c{j + 1}"] = Copier(uses)
                wires.append(((f"r{j + 1}", 0), (f"c{j + 1}", 0)))
                taps[j] = [(f"c{j + 1}", k) for k in range(uses)]

        def next_tap(j: int) -> Port:
            return taps[j].pop(0)

        counter = 0
        row_inputs: Dict[int, List[Port]] = {i: [] for i in range(n)}
        for row, src, weight in edges:
            counter += 1
            name = f"m{counter}"
            gates[name] = Multiplier(weight)
            wires.append((next_tap(src), (name, 0)))
            row_inputs[row].append((name, 0))
        forward_inputs: List[Port] = []
        for src, weight in forward:
            counter += 1
            name = f"m{counter}"
            gates[name] = Multiplier(weight)
            wires.append((next_tap(src), (name, 0)))
            forward_inputs.append((name, 0))

        for i in range(n):
            inputs = row_inputs[i]
            if len(inputs) == 1:
                wires.append((inputs[0], (f"r{i + 1}", 0)))
            else:
                name = f"a{i + 1}"
                gates[name] = Adder(len(inputs))
                for idx, port in enumerate(inputs):
                    wires.append((port, (name, idx)))
                wires.append(((name, 0), (f"r{i + 1}", 0)))
        if len(forward_inputs) == 1:
            output = forward_inputs[0]
        else:
            gates["aout"] = Adder(len(forward_inputs))
            for idx, port in enumerate(forward_inputs):
                wires.append((port, ("aout", idx)))
            output = ("aout", 0)
        return Netlist(field, gates, wires, output)


_GATE_KEYWORDS = {
    "multiplier": (Multiplier, "r"),
    "register": (Register, "init"),
    "adder": (Adder, "arity"),
    "copier": (Copier, "fanout"),
}


def format_netlist(netlist: Netlist) -> str:
    lines = [f"field {netlist.field.spec()}"]
    for name, gate in netlist.gates.items():
        if isinstance(gate, Multiplier):
            lines.append(f"gate {name} multiplier r={netlist.field.format(gate.factor)}")
        elif isinstance(gate, Register):
            lines.append(f"gate {name} register init={netlist.field.format(gate.initial)}")
        elif isinstance(gate, Adder):
            lines.append(f"gate {name} adder arity={gate.arity}")
        else:
            lines.append(f"gate {name} copier fanout={gate.fanout}")
    for (src_gid, src_idx), (dst_gid, dst_idx) in netlist.wires:
        lines.append(f"wire {src_gid}.out{src_idx} -> {dst_gid}.in{dst_idx}")
    lines.append(f"output {netlist.output[0]}.out{netlist.output[1]}")
    return "\n".join(lines) + "\n"


def _parse_port(text: str, direction: str) -> Port:
    gid, dot, port = text.partition(".")
    if not dot or not port.startswith(direction) or not is_ascii_digits(port[len(direction):]):
        raise FormatError(f"bad {direction}put port: {text!r}")
    return gid, parse_integer(port[len(direction):])


def parse_netlist(text: str) -> Netlist:
    header, lines = read_records(text, ("output",), ("field",), ("gate", "wire"))
    gates: Dict[str, Gate] = {}
    wires: List[Wire] = []
    line, spec = header.get("field", (None, "q"))
    try:
        field = field_from_spec(spec)
        line, value = header["output"]
        output = _parse_port(value, "out")
        for line, key, value in lines:
            if key == "wire":
                src, arrow, dst = value.partition("->")
                if not arrow:
                    raise FormatError(f"bad wire line: wire {value}")
                wires.append((_parse_port(src.strip(), "out"), _parse_port(dst.strip(), "in")))
                continue
            parts = value.split()
            if len(parts) != 3:
                raise FormatError(f"bad gate line: gate {value}")
            name, kind, param = parts
            if name in gates:
                raise FormatError(f"duplicate gate id: {name}")
            if kind not in _GATE_KEYWORDS:
                raise FormatError(f"unknown gate kind: {kind!r}")
            cls, param_key = _GATE_KEYWORDS[kind]
            label, eq, param_value = param.partition("=")
            if label != param_key or not eq:
                raise FormatError(f"gate {name} expects parameter {param_key}=...")
            if cls in (Adder, Copier):
                if not is_ascii_digits(param_value):
                    raise FormatError(f"gate {name}: {param_key} must be an integer")
                gates[name] = cls(parse_integer(param_value))
            else:
                gates[name] = cls(field.parse(param_value))
    except FormatError as exc:
        raise exc.at(line)
    return Netlist(field, gates, wires, output)


def format_canonical(circuit: CanonicalCircuit) -> str:
    """Compact canonical form: field= / M= / N= / r= using matrix text syntax."""
    return (
        f"field={circuit.field.spec()}\n"
        f"M={format_matrix(circuit.feedback)}\n"
        f"N={format_matrix(circuit.feedforward)}\n"
        f"r={format_vector(circuit.field, circuit.initial)}\n"
    )


def parse_canonical(text: str) -> CanonicalCircuit:
    entries, _ = read_records(text, ("M", "N", "r"), ("field",), separator="=")
    line, spec = entries.get("field", (None, "q"))
    try:
        field = field_from_spec(spec)
        line, value = entries["M"]
        feedback = parse_matrix(field, value)
        line, value = entries["N"]
        feedforward = parse_matrix(field, value)
        line, value = entries["r"]
        initial = parse_vector(field, value)
    except FormatError as exc:
        raise exc.at(line)
    return CanonicalCircuit(feedback, feedforward, initial)


def parse_circuit_file(text: str) -> Union[Netlist, CanonicalCircuit]:
    """A netlist file if a line starts with a netlist keyword, else the canonical form."""
    if any(line.split(" ", 1)[0] in ("gate", "wire", "output") for _, line in content_lines(text)):
        return parse_netlist(text)
    return parse_canonical(text)
