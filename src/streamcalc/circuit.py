"""Stream circuits: gate-level netlists and the canonical register form.

A netlist is a closed synchronous circuit built from multipliers, registers,
adders and copiers.  Each tick, registers emit their stored values, the
combinational gates are evaluated in topological order, the designated output
port is sampled, and then every register latches its freshly computed input
simultaneously.  One table, ``_KINDS``, states each gate kind's file keyword
and parameter, the attribute holding it, and the ports an integer one counts.
A netlist derives one evaluation plan when it is built: its multipliers and
adders in ``graphlib``'s topological order of the register-free gate graph,
each with the value slots of its drivers (copiers only alias slots), so a tick
is one walk over that plan on plain integers, in the field's integer form.
Over GF(p) a slot holds its residue, reduced after each multiplier and adder.
Over Q a slot holds an integer v over the shared denominator g of the register
values times a static multiplier m of its own, so that its value is v / (g m):
a register has m = 1, a multiplier by a/b keeps the integer factor a and has
m = m_in b (the field's ``integers`` of a/b), and an adder has the lcm of its
inputs' m, with the integer weights m / m_in.  Each tick g grows by the lcm L
of the latched slots' m, each latched value by L / m through a multiplier at
the end of the plan, and every few ticks the field's ``shrink`` strips the
common content of g and the register integers.  ``simulate`` walks the plan
tick after tick, in time linear in the gates, and boxes each sample with the
field's ``ratio``.  A tick is linear in the register values, so one walk from
each unit state reads off the netlist's pointed linear system
(``to_linear_system``, boxed by ``ratios``), through which its closed form is
found.

A canonical circuit is the dense description (feedback matrix, feedforward
row, register seeds), itself a pointed linear system; its closed-form
behaviour is the feedforward row applied to the resolvent of the feedback
matrix at the seeds.  It expands to a netlist from one table of weighted
edges with one multiplier per edge; zero-weight fix-up edges keep every
register driven and read and the output tapped.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from math import lcm
from operator import mul
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

from .errors import (
    DimensionMismatch,
    FormatError,
    IllFormedCircuit,
    check_count,
)
from .fields import Field, field_from_spec, is_ascii_digits, parse_integer
from .linear_system import LinearSystem, PointedLinearSystem
from .matrix import Matrix, format_matrix, format_vector, parse_matrix, parse_vector
from .ratstream import RationalStream
from .records import MAX_DIMENSION, content_lines, read_records


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


class _Kind(NamedTuple):
    keyword: str  # of the kind on a netlist file's gate line
    parameter: str  # label of the line's one parameter
    attribute: str  # the gate's field that holds the parameter
    counted: Optional[str]  # "in" or "out": the side whose ports it counts; else a scalar


_KINDS = {
    Multiplier: _Kind("multiplier", "r", "factor", None),
    Register: _Kind("register", "init", "initial", None),
    Adder: _Kind("adder", "arity", "arity", "in"),
    Copier: _Kind("copier", "fanout", "fanout", "out"),
}
_BY_KEYWORD = {kind.keyword: (cls, kind) for cls, kind in _KINDS.items()}


# Ticks between two strips of the register integers' content over Q.
STRIP_PERIOD = 4


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
        self._make_plan()

    def _validate(self):
        # each gate's count of input ports, kept for the plan, and of output ports
        self._inputs, outputs = {}, {}
        for name, gate in self.gates.items():
            facts = _KINDS[type(gate)]
            count = getattr(gate, facts.attribute) if facts.counted else 1
            if facts.counted and count < 2:
                raise IllFormedCircuit(f"{facts.keyword} {name} needs {facts.parameter} >= 2")
            self._inputs[name] = count if facts.counted == "in" else 1
            outputs[name] = count if facts.counted == "out" else 1
        consumers: Dict[Port, int] = {}
        for src, dst in self.wires:
            for kind, (gid, idx) in (("source", src), ("destination", dst)):
                if gid not in self.gates:
                    raise IllFormedCircuit(f"wire {kind} references unknown gate {gid}")
            src_gid, src_idx = src
            dst_gid, dst_idx = dst
            if not 0 <= src_idx < outputs[src_gid]:
                raise IllFormedCircuit(f"gate {src_gid} has no output port {src_idx}")
            if not 0 <= dst_idx < self._inputs[dst_gid]:
                raise IllFormedCircuit(f"gate {dst_gid} has no input port {dst_idx}")
            if dst in self._drivers:
                raise IllFormedCircuit(f"input port {dst_gid}.in{dst_idx} driven twice")
            self._drivers[dst] = src
            consumers[src] = consumers.get(src, 0) + 1
        out_gid, out_idx = self.output
        if out_gid not in self.gates:
            raise IllFormedCircuit(f"output references unknown gate {out_gid}")
        if not 0 <= out_idx < outputs[out_gid]:
            raise IllFormedCircuit(f"gate {out_gid} has no output port {out_idx}")
        for name in self.gates:
            for idx in range(self._inputs[name]):
                if (name, idx) not in self._drivers:
                    raise IllFormedCircuit(f"dangling input port {name}.in{idx}")
            for idx in range(outputs[name]):
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

    def _make_plan(self):
        """The plan of :meth:`_tick`, the seeds and the slots read after a tick.

        A tick's values are one list: register outputs, then one slot per
        multiplier or adder in the topological order of ``graphlib`` over the
        register-free gate graph, whose ``CycleError`` is a register-free
        loop; copier outputs alias their input's slot.  Each slot gets its
        denominator multiplier m (1 throughout over GF(p)).  A plan entry is
        (a, slot, None) for a multiplier by a/b, and (None, slots, weights)
        for an adder, with weights None when all are 1.  The plan ends with a
        multiplier by L / m for each latched slot whose m is below the lcm L
        of the latched slots' m, so a tick's latched slots are the next
        register integers, over g L.
        """
        gates, drivers = self.gates, self._drivers
        registers = [name for name, gate in gates.items() if isinstance(gate, Register)]
        slots: Dict[Port, int] = {(name, 0): k for k, name in enumerate(registers)}
        sources = {
            name: [drivers[(name, idx)] for idx in range(self._inputs[name])]
            for name, gate in gates.items()
            if not isinstance(gate, Register)
        }
        graph = {name: [gid for gid, _ in ports if gid in sources] for name, ports in sources.items()}
        scales = [1] * len(registers)  # m of each slot
        plan = []
        try:
            for name in TopologicalSorter(graph).static_order():
                gate = gates[name]
                inputs = [slots[src] for src in sources[name]]
                if isinstance(gate, Copier):
                    slots.update(((name, idx), inputs[0]) for idx in range(gate.fanout))
                    continue
                slots[(name, 0)] = len(scales)
                if isinstance(gate, Multiplier):
                    (a,), b = self.field.integers([gate.factor])
                    plan.append((a, inputs[0], None))
                    scales.append(scales[inputs[0]] * b)
                else:
                    m = lcm(*(scales[k] for k in inputs))
                    weights = [m // scales[k] for k in inputs]
                    plan.append((None, inputs, weights if max(weights) > 1 else None))
                    scales.append(m)
        except CycleError:
            raise IllFormedCircuit("combinational cycle (a loop must pass a register)") from None
        latches = [slots[drivers[(name, 0)]] for name in registers]
        growth = self._growth = lcm(*(scales[k] for k in latches))
        for j, k in enumerate(latches):
            if scales[k] < growth:
                plan.append((growth // scales[k], k, None))
                latches[j] = len(scales)
                scales.append(growth)
        self._modulus = self.field.characteristic  # 0 over Q: no reduction
        self._seeds, self._seed_scale = self.field.integers(gates[name].initial for name in registers)
        self._plan, self._scales, self._latches = plan, scales, latches
        self._output = slots[self.output]

    def _tick(self, state: List[int]) -> List[int]:
        """The slot integers of one tick from the register integers ``state``."""
        values, p = list(state), self._modulus
        for factor, inputs, weights in self._plan:
            if factor is not None:
                v = factor * values[inputs]
            elif weights is None:
                v = sum([values[k] for k in inputs])
            else:
                v = sum(map(mul, weights, [values[k] for k in inputs]))
            values.append(v % p if p else v)
        return values

    def simulate(self, steps: int) -> List:
        """Sample the designated output for ``steps`` synchronous ticks."""
        check_count(steps, "number of ticks")
        state, g, samples = self._seeds, self._seed_scale, []
        out, m_out, growth = self._output, self._scales[self._output], self._growth
        latches, ratio, shrink = self._latches, self.field.ratio, self.field.shrink
        for t in range(1, steps + 1):
            values = self._tick(state)
            samples.append(ratio(values[out], g * m_out))
            # all registers latch simultaneously at tick end
            state, g = [values[k] for k in latches], g * growth
            if t % STRIP_PERIOD == 0 and g != 1:
                state, g = shrink(state, g)
        return samples

    def to_linear_system(self) -> PointedLinearSystem:
        """The pointed system of the register values: the tick from unit state j
        (over g = 1) gives column j of F at the latch slots and of H at the
        output slot."""
        r, field = len(self._seeds), self.field
        if r > MAX_DIMENSION:
            raise DimensionMismatch(f"{r} registers; a linear system has at most {MAX_DIMENSION}")
        columns = [self._tick([int(i == j) for i in range(r)]) for j in range(r)]
        ratios, scales = field.ratios, self._scales
        dynamics = Matrix(field, (ratios([c[k] for c in columns], scales[k]) for k in self._latches), cols=r)
        out = self._output
        output = Matrix(field, [ratios([c[out] for c in columns], scales[out])], cols=r)
        initial = ratios(self._seeds, self._seed_scale)
        return PointedLinearSystem(LinearSystem(dynamics, output), initial)

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
            raise DimensionMismatch("canonical circuits have a single output")
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
        return cls(pointed.system.dynamics, pointed.system.output, pointed.initial)

    def to_netlist(self) -> Netlist:
        """Expand to gates: registers, copiers, multipliers, adders.

        One edge table {(destination, source register): weight} holds the
        nonzero entries of M and N, with N as destination n (the output); a
        zero entry is no edge.  Zero-weight fix-up edges keep the netlist
        closed: (i, i) for a destination with no edge ((n, 0) for the output)
        and (j, j) for a register nobody reads.  One sweep then emits the
        registers, a copier per register read more than once, one multiplier
        per edge in key order, and an adder a{i} or aout per destination with
        several edges.
        """
        zero, n = self.field.zero(), self.registers
        rows = self.feedback.entries + self.feedforward.entries
        edges = {(i, j): w for i, row in enumerate(rows) for j, w in enumerate(row) if w}
        driven = {i for i, _ in edges}
        for i in range(n + 1):
            if i not in driven:
                edges[(i, i if i < n else 0)] = zero
        reads = Counter(j for _, j in edges)
        for j in range(n):
            if not reads[j]:
                edges[(j, j)] = zero
                reads[j] = 1

        gates: Dict[str, Gate] = {f"r{j + 1}": Register(v) for j, v in enumerate(self.initial)}
        wires: List[Wire] = []
        taps = {}
        for j in range(n):
            if reads[j] == 1:
                taps[j] = iter([(f"r{j + 1}", 0)])
            else:
                gates[f"c{j + 1}"] = Copier(reads[j])
                wires.append(((f"r{j + 1}", 0), (f"c{j + 1}", 0)))
                taps[j] = iter([(f"c{j + 1}", k) for k in range(reads[j])])
        inputs: List[List[Port]] = [[] for _ in range(n + 1)]
        for k, ((i, j), weight) in enumerate(sorted(edges.items()), 1):
            gates[f"m{k}"] = Multiplier(weight)
            wires.append((next(taps[j]), (f"m{k}", 0)))
            inputs[i].append((f"m{k}", 0))
        for i, ports in enumerate(inputs):
            if len(ports) > 1:
                name = f"a{i + 1}" if i < n else "aout"
                gates[name] = Adder(len(ports))
                wires.extend((port, (name, idx)) for idx, port in enumerate(ports))
                ports = [(name, 0)]
            if i < n:
                wires.append((ports[0], (f"r{i + 1}", 0)))
        return Netlist(self.field, gates, wires, ports[0])


def format_netlist(netlist: Netlist) -> str:
    lines = [f"field {netlist.field.spec()}"]
    for name, gate in netlist.gates.items():
        facts = _KINDS[type(gate)]
        value = getattr(gate, facts.attribute)
        text = value if facts.counted else netlist.field.format(value)
        lines.append(f"gate {name} {facts.keyword} {facts.parameter}={text}")
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
            if kind not in _BY_KEYWORD:
                raise FormatError(f"unknown gate kind: {kind!r}")
            cls, facts = _BY_KEYWORD[kind]
            label, eq, param_value = param.partition("=")
            if label != facts.parameter or not eq:
                raise FormatError(f"gate {name} expects parameter {facts.parameter}=...")
            if facts.counted:
                if not is_ascii_digits(param_value):
                    raise FormatError(f"gate {name}: {facts.parameter} must be an integer")
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
        n = feedback.rows
        if feedback.cols != n:
            raise FormatError(f"M is {n} x {feedback.cols}, not square")
        line, value = entries["N"]
        feedforward = parse_matrix(field, value)
        if feedforward.rows != 1 or feedforward.cols != n:
            raise FormatError(f"N must be a 1 x {n} row")
        line, value = entries["r"]
        initial = parse_vector(field, value)
        if len(initial) != n:
            raise FormatError(f"r of length {len(initial)} disagrees with M's size {n}")
    except FormatError as exc:
        raise exc.at(line)
    return CanonicalCircuit(feedback, feedforward, initial)


def parse_circuit_file(text: str) -> Union[Netlist, CanonicalCircuit]:
    """A netlist file if a line starts with a netlist keyword, else the canonical form."""
    if any(line.split(" ", 1)[0] in ("gate", "wire", "output") for _, line in content_lines(text)):
        return parse_netlist(text)
    return parse_canonical(text)
