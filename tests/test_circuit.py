import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcalc import (
    Adder,
    CanonicalCircuit,
    Copier,
    DimensionMismatch,
    FieldMismatch,
    IllFormedCircuit,
    LinearSystem,
    Matrix,
    Multiplier,
    Netlist,
    PointedLinearSystem,
    QQ,
    Register,
    format_canonical,
    format_netlist,
    parse_canonical,
    parse_circuit_file,
    parse_netlist,
    realize,
    to_rational,
)
from streamcalc.expr import evaluate_text
from streamcalc.fields import PrimeField
from util import boxed_linear_system, boxed_simulate, random_stream

NATURALS_CANONICAL = CanonicalCircuit(
    Matrix(QQ, [[0, -1], [1, 2]]), Matrix(QQ, [[1, 2]]), (1, 0)
)


def test_simulate_canonical_netlist():
    net = NATURALS_CANONICAL.to_netlist()
    assert net.simulate(5) == [1, 2, 3, 4, 5]
    assert net.simulate(0) == []
    with pytest.raises(ValueError, match="nonnegative"):
        net.simulate(-1)


def test_register_with_zero_feedback():
    # single register seeded with c whose next value is always 0
    c = CanonicalCircuit(Matrix(QQ, [[0]]), Matrix(QQ, [[1]]), (7,))
    assert c.to_netlist().simulate(4) == [7, 0, 0, 0]


def test_register_self_loop_keeps_value():
    c = CanonicalCircuit(Matrix(QQ, [[1]]), Matrix(QQ, [[1]]), (3,))
    net = c.to_netlist()
    assert net.simulate(4) == [3, 3, 3, 3]
    # the loop passes through the register itself
    assert any(isinstance(g, Register) for g in net.gates.values())


def test_canonical_behaviour_golden():
    assert NATURALS_CANONICAL.behaviour() == evaluate_text("1/(1-X)^2")


def test_canonical_behaviour_scalar():
    c = CanonicalCircuit(Matrix(QQ, [[5]]), Matrix(QQ, [[1]]), (1,))
    assert c.behaviour() == evaluate_text("1/(1-5*X)")


def test_canonical_behaviour_zero_seeds():
    c = CanonicalCircuit(Matrix(QQ, [[0, -1], [1, 2]]), Matrix(QQ, [[1, 2]]), (0, 0))
    assert not c.behaviour()


def test_netlist_structure_with_zero_entry_elided():
    net = NATURALS_CANONICAL.to_netlist()
    counts = Counter(type(g).__name__ for g in net.gates.values())
    # the 0 entry in the feedback matrix produces no multiplier, and the
    # single-input row needs no adder
    assert counts == {"Register": 2, "Copier": 2, "Multiplier": 5, "Adder": 2}
    factors = sorted(
        g.factor for g in net.gates.values() if isinstance(g, Multiplier)
    )
    assert factors == [-1, 1, 1, 2, 2]


def test_netlist_for_unused_register_stays_closed():
    # second register influences nothing: it gets a 0-multiplier self-edge
    c = CanonicalCircuit(Matrix(QQ, [[2, 0], [0, 0]]), Matrix(QQ, [[1, 0]]), (1, 5))
    net = c.to_netlist()
    assert net.simulate(4) == [1, 2, 4, 8]


def test_simulation_agrees_with_closed_form():
    rng = random.Random(31)
    for _ in range(12):
        n = rng.randint(1, 4)
        c = CanonicalCircuit(
            Matrix(QQ, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]),
            Matrix(QQ, [[rng.randint(-3, 3) for _ in range(n)]]),
            tuple(rng.randint(-3, 3) for _ in range(n)),
        )
        assert c.to_netlist().simulate(12) == c.behaviour().expand(12)


def test_extra_output_register_prepends():
    net = NATURALS_CANONICAL.to_netlist()
    delayed = net.with_output_register(9)
    assert delayed.simulate(6) == [9] + net.simulate(5)


def test_conversion_to_linear_system_golden():
    pointed = NATURALS_CANONICAL.to_linear_system()
    assert pointed.system.dynamics == Matrix(QQ, [[0, -1], [1, 2]])
    assert pointed.system.output == Matrix(QQ, [[1, 2]])
    assert pointed.initial == (1, 0)
    assert pointed.behaviour()[0] == NATURALS_CANONICAL.behaviour()


def test_conversion_round_trip():
    again = CanonicalCircuit.from_linear_system(NATURALS_CANONICAL.to_linear_system())
    assert again == NATURALS_CANONICAL


def test_zero_dimensional_system_rejected():
    from streamcalc import RationalStream

    pointed = realize([RationalStream.zero(QQ)])
    with pytest.raises(DimensionMismatch):
        CanonicalCircuit.from_linear_system(pointed)


def test_multi_output_system_rejected():
    system = LinearSystem(Matrix(QQ, [[1]]), Matrix(QQ, [[1], [2]]))
    with pytest.raises(DimensionMismatch):
        CanonicalCircuit.from_linear_system(PointedLinearSystem(system, (1,)))


def test_behaviour_matches_synthesis_round_trip():
    rng = random.Random(32)
    for _ in range(10):
        s = random_stream(rng, max_deg=4)
        circuit = CanonicalCircuit.from_linear_system(realize([s]))
        assert circuit.behaviour() == s


def test_netlist_file_round_trip():
    net = NATURALS_CANONICAL.to_netlist()
    text = format_netlist(net)
    assert parse_netlist(text) == net
    assert format_netlist(parse_netlist(text)) == text


def test_canonical_file_round_trip():
    text = format_canonical(NATURALS_CANONICAL)
    assert text == "field=q\nM=0,-1;1,2\nN=1,2\nr=1,0\n"
    assert parse_canonical(text) == NATURALS_CANONICAL
    # the inline one-chunk spelling parses too
    inline = "M=0,-1;1,2; N=1,2; r=1,0"
    assert parse_canonical(inline) == NATURALS_CANONICAL


def test_parse_circuit_file_dispatch():
    assert isinstance(parse_circuit_file(format_canonical(NATURALS_CANONICAL)), CanonicalCircuit)
    assert isinstance(
        parse_circuit_file(format_netlist(NATURALS_CANONICAL.to_netlist())), Netlist
    )


def test_dangling_input_rejected():
    gates = {"r1": Register(QQ.coerce(1)), "m1": Multiplier(QQ.coerce(2))}
    wires = [(("m1", 0), ("r1", 0))]
    with pytest.raises(IllFormedCircuit):
        Netlist(QQ, gates, wires, ("r1", 0))


def test_combinational_cycle_rejected():
    gates = {
        "r1": Register(QQ.coerce(1)),
        "m1": Multiplier(QQ.coerce(2)),
        "m2": Multiplier(QQ.coerce(3)),
        "c1": Copier(2),
    }
    # m1 -> m2 -> c1 -> m1 is a register-free loop
    wires = [
        (("m1", 0), ("m2", 0)),
        (("m2", 0), ("c1", 0)),
        (("c1", 0), ("m1", 0)),
        (("c1", 1), ("r1", 0)),
    ]
    with pytest.raises(IllFormedCircuit):
        Netlist(QQ, gates, wires, ("r1", 0))


def test_double_driven_input_rejected():
    gates = {
        "r1": Register(QQ.coerce(1)),
        "r2": Register(QQ.coerce(2)),
        "m1": Multiplier(QQ.coerce(1)),
    }
    wires = [
        (("r1", 0), ("m1", 0)),
        (("r2", 0), ("m1", 0)),
        (("m1", 0), ("r1", 0)),
    ]
    with pytest.raises(IllFormedCircuit):
        Netlist(QQ, gates, wires, ("r2", 0))


def test_small_arity_gates_rejected():
    with pytest.raises(IllFormedCircuit):
        Netlist(QQ, {"a": Adder(1), "r": Register(QQ.zero())}, [], ("a", 0))
    with pytest.raises(IllFormedCircuit):
        Netlist(QQ, {"c": Copier(1), "r": Register(QQ.zero())}, [], ("c", 0))


SPARSE_FIELDS = (QQ, PrimeField(2), PrimeField(101))


@st.composite
def sparse_circuits(draw):
    """Canonical circuits that are mostly zeros: zero rows, zero columns, N = 0."""
    field = draw(st.sampled_from(SPARSE_FIELDS))
    n = draw(st.integers(1, 6))
    entry = st.sampled_from((0, 0, 0, 0, 1, -1, 2, 3))
    row = st.lists(entry, min_size=n, max_size=n)
    feedback = draw(st.lists(row, min_size=n, max_size=n))
    for i in draw(st.sets(st.integers(0, n - 1))):
        feedback[i] = [0] * n
    for j in draw(st.sets(st.integers(0, n - 1))):
        for r in feedback:
            r[j] = 0
    feedforward = draw(st.one_of(st.just([0] * n), row))
    seeds = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    return CanonicalCircuit(Matrix(field, feedback), Matrix(field, [feedforward]), tuple(seeds))


def fix_up_count(circuit):
    """Zero-weight edges to_netlist adds: undriven rows, an untapped output,
    and registers read by no edge (nor by those fix-ups)."""
    zero, n = circuit.field.zero(), circuit.registers
    rows = [list(r) for r in circuit.feedback.entries]
    forward = list(circuit.feedforward.entries[0])
    zero_rows = {i for i in range(n) if all(v == zero for v in rows[i])}
    silent = all(v == zero for v in forward)
    read = {j for i in range(n) for j in range(n) if rows[i][j] != zero}
    read |= {j for j in range(n) if forward[j] != zero} | zero_rows | ({0} if silent else set())
    return len(zero_rows) + silent + (n - len(read))


@settings(max_examples=200)
@given(sparse_circuits())
def test_sparse_circuit_netlists(circuit):
    net = circuit.to_netlist()
    steps = 2 * circuit.registers + 2
    assert net.simulate(steps) == circuit.behaviour().expand(steps)
    assert parse_netlist(format_netlist(net)) == net
    zero = circuit.field.zero()
    entries = [v for row in circuit.feedback.entries + circuit.feedforward.entries for v in row]
    expected = Counter(v for v in entries if v != zero)
    expected[zero] += fix_up_count(circuit)
    weights = Counter(g.factor for g in net.gates.values() if isinstance(g, Multiplier))
    assert weights == +expected


# format_netlist text of a circuit with a zero row (r2), an unread register
# (r3) and an all-zero N, as the netlist expansion has always produced it
FIX_UP_GOLDEN = """\
field q
gate r1 register init=1
gate r2 register init=2
gate r3 register init=3
gate c1 copier fanout=2
gate c2 copier fanout=3
gate m1 multiplier r=2
gate m2 multiplier r=0
gate m3 multiplier r=1
gate m4 multiplier r=3
gate m5 multiplier r=0
gate m6 multiplier r=0
gate a3 adder arity=3
wire r1.out0 -> c1.in0
wire r2.out0 -> c2.in0
wire c2.out0 -> m1.in0
wire c2.out1 -> m2.in0
wire c1.out0 -> m3.in0
wire c2.out2 -> m4.in0
wire r3.out0 -> m5.in0
wire c1.out1 -> m6.in0
wire m1.out0 -> r1.in0
wire m2.out0 -> r2.in0
wire m3.out0 -> a3.in0
wire m4.out0 -> a3.in1
wire m5.out0 -> a3.in2
wire a3.out0 -> r3.in0
output m6.out0
"""


def test_fix_up_netlist_golden():
    c = CanonicalCircuit(
        Matrix(QQ, [[0, 2, 0], [0, 0, 0], [1, 3, 0]]), Matrix(QQ, [[0, 0, 0]]), (1, 2, 3)
    )
    assert format_netlist(c.to_netlist()) == FIX_UP_GOLDEN
    assert c.to_netlist().simulate(6) == [0] * 6


def test_hand_written_netlist():
    # x doubles itself, y flips its sign; the output is x + y + x through a
    # 3-way copier and a chain of two adders: 2*2^t + 2*(-1)^t
    gates = {
        "sum2": Adder(2),
        "sum1": Adder(2),
        "y": Register(QQ.coerce(2)),
        "fan": Copier(3),
        "flip": Multiplier(QQ.coerce(-1)),
        "twice": Multiplier(QQ.coerce(2)),
        "yfan": Copier(2),
        "x": Register(QQ.coerce(1)),
    }
    wires = [
        (("sum1", 0), ("sum2", 0)),
        (("fan", 2), ("sum2", 1)),
        (("fan", 1), ("sum1", 0)),
        (("yfan", 1), ("sum1", 1)),
        (("flip", 0), ("y", 0)),
        (("yfan", 0), ("flip", 0)),
        (("y", 0), ("yfan", 0)),
        (("twice", 0), ("x", 0)),
        (("fan", 0), ("twice", 0)),
        (("x", 0), ("fan", 0)),
    ]
    net = Netlist(QQ, gates, wires, ("sum2", 0))
    assert net.simulate(6) == [4, 2, 10, 14, 34, 62]
    assert net.with_output_register(5).simulate(4) == [5, 4, 2, 10]
    assert parse_netlist(format_netlist(net)).simulate(6) == [4, 2, 10, 14, 34, 62]


def test_gate_parameter_outside_the_field_fails_at_construction():
    gf7 = PrimeField(7)
    gates = {"r1": Register(gf7.coerce(1)), "m1": Multiplier(gf7.coerce(3)), "c1": Copier(2)}
    wires = [(("r1", 0), ("c1", 0)), (("c1", 0), ("m1", 0)), (("m1", 0), ("r1", 0))]
    assert Netlist(gf7, gates, wires, ("c1", 1)).simulate(3) == [1, 3, 2]
    with pytest.raises(FieldMismatch):
        Netlist(QQ, gates, wires, ("c1", 1))


@st.composite
def netlists(draw):
    """Well-formed netlists grown gate by gate, unlike ``to_netlist``'s layout.

    Gates take still-unwired output ports, so the combinational part is
    acyclic and every loop passes a register.  The ports left over drive the
    registers and the output in a random order, so registers feed registers
    directly, loops overlap, and the output may be a register's.
    """
    field = draw(st.sampled_from((QQ, PrimeField(2), PrimeField(101))))
    scalar = st.integers(-3, 3).map(field.coerce)
    r = draw(st.integers(1, 4))
    gates = {f"r{j}": Register(draw(scalar)) for j in range(r)}
    wires = []
    free = [(f"r{j}", 0) for j in range(r)]

    def take():
        return free.pop(draw(st.integers(0, len(free) - 1)))

    def add(gate, inputs):
        name = f"g{len(gates)}"
        gates[name] = gate
        wires.extend((src, (name, i)) for i, src in enumerate(inputs))
        free.extend((name, i) for i in range(gate.fanout if isinstance(gate, Copier) else 1))

    for kind in draw(st.lists(st.sampled_from(("multiplier", "adder", "copier")), max_size=10)):
        if kind == "adder" and len(free) >= 2:
            arity = draw(st.integers(2, min(3, len(free))))
            add(Adder(arity), [take() for _ in range(arity)])
        elif kind == "copier":
            add(Copier(draw(st.integers(2, 3))), [take()])
        else:
            add(Multiplier(draw(scalar)), [take()])
    while len(free) > r + 1:
        add(Adder(2), [take(), take()])
    while len(free) < r + 1:
        add(Copier(2), [take()])
    ports = draw(st.permutations(free))
    wires.extend((ports[j], (f"r{j}", 0)) for j in range(r))
    order = draw(st.permutations(list(gates)))
    return Netlist(field, {name: gates[name] for name in order}, wires, ports[r])


@settings(max_examples=200)
@given(netlists())
def test_netlist_closed_form_matches_simulation(net):
    r = sum(isinstance(gate, Register) for gate in net.gates.values())
    assert to_rational(net).expand(2 * r + 5) == net.simulate(2 * r + 5)


def square_plus_two_rows(n):
    row = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    return st.lists(row, min_size=n + 2, max_size=n + 2)


@settings(max_examples=100)
@given(st.integers(1, 4).flatmap(square_plus_two_rows), st.sampled_from((QQ, PrimeField(7))))
def test_to_netlist_reads_back_its_own_system(rows, field):
    *feedback, feedforward, seeds = rows
    circuit = CanonicalCircuit(Matrix(field, feedback), Matrix(field, [feedforward]), tuple(seeds))
    assert circuit.to_netlist().to_linear_system() == circuit.to_linear_system()
    delayed = circuit.to_netlist().with_output_register(5)
    n = len(seeds)
    assert to_rational(delayed).expand(2 * n + 7) == delayed.simulate(2 * n + 7)


HAND_WRITTEN = """\
# x doubles itself, y flips its sign; the output is x + y + x through a
# 3-way copier and a chain of two adders: 2*2^t + 2*(-1)^t
gate sum2 adder arity=2
gate sum1 adder arity=2
gate y register init=2
gate fan copier fanout=3
gate flip multiplier r=-1
gate twice multiplier r=2
gate yfan copier fanout=2
gate x register init=1
wire sum1.out0 -> sum2.in0
wire fan.out2 -> sum2.in1
wire fan.out1 -> sum1.in0
wire yfan.out1 -> sum1.in1
wire flip.out0 -> y.in0
wire yfan.out0 -> flip.in0
wire y.out0 -> yfan.in0
wire twice.out0 -> x.in0
wire fan.out0 -> twice.in0
wire x.out0 -> fan.in0
output sum2.out0
"""


def test_hand_written_netlist_closed_form():
    net = parse_netlist(HAND_WRITTEN)
    assert to_rational(net) == evaluate_text("2/(1-2*X) + 2/(1+X)")
    assert to_rational(net.with_output_register(5)) == evaluate_text("5 + X*(2/(1-2*X) + 2/(1+X))")


# Multiplier factors and seeds with mixed denominators, zeros included: a
# chain of them gives slots whose denominator multipliers m differ.
FACTORS = tuple(map(Fraction, ("1/18", "7/12", "0", "-5/3", "2", "-1")))
SEEDS = tuple(map(Fraction, ("0", "1/6", "-3/4", "5", "2/9")))
PLAN_FIELDS = (QQ, PrimeField(2), PrimeField(101), PrimeField(2**61 - 1))


def in_field(field, value):
    """A Fraction as an element of ``field``; over GF(p) a denominator that p
    divides is dropped."""
    if field is QQ:
        return value
    if value.denominator % field.modulus == 0:
        return field.coerce(value.numerator)
    return field.coerce(value.numerator) / field.coerce(value.denominator)


@st.composite
def mixed_denominator_netlists(draw, field):
    """Hand-grown netlists, as ``netlists`` grows them: seeds from SEEDS, a
    chain of 0 to 3 multipliers by FACTORS behind each register, copiers to
    fan out until three ports are free, one adder of arity 3 to 5 over
    ports whose chains differ, then more chains, adders and copiers; half of
    them get ``with_output_register``."""

    def scalar(values):
        return st.sampled_from(values).map(lambda v: in_field(field, v))

    r = draw(st.integers(1, 4))
    gates = {f"r{j}": Register(draw(scalar(SEEDS))) for j in range(r)}
    wires = []
    free = [(f"r{j}", 0) for j in range(r)]

    def take():
        return free.pop(draw(st.integers(0, len(free) - 1)))

    def add(gate, inputs):
        name = f"g{len(gates)}"
        gates[name] = gate
        wires.extend((src, (name, i)) for i, src in enumerate(inputs))
        free.extend((name, i) for i in range(gate.fanout if isinstance(gate, Copier) else 1))

    def chain(length):
        port = free.pop(0)
        for _ in range(length):
            add(Multiplier(draw(scalar(FACTORS))), [port])
            port = free.pop()
        free.append(port)

    for _ in range(r):
        chain(draw(st.integers(0, 3)))
    while len(free) < 3:
        add(Copier(draw(st.integers(2, 3))), [take()])
        chain(draw(st.integers(1, 2)))
    arity = draw(st.integers(3, min(5, len(free))))
    add(Adder(arity), [take() for _ in range(arity)])
    kinds = st.sampled_from(("chain", "adder", "copier"))
    for kind in draw(st.lists(kinds, max_size=6)):
        if kind == "adder" and len(free) >= 2:
            arity = draw(st.integers(2, min(5, len(free))))
            add(Adder(arity), [take() for _ in range(arity)])
        elif kind == "copier":
            add(Copier(draw(st.integers(2, 3))), [take()])
        else:
            free.append(take())  # a random port goes to the front
            free.insert(0, free.pop())
            chain(draw(st.integers(1, 3)))
    while len(free) > r + 1:
        arity = min(len(free) - r, 3)
        add(Adder(arity), [take() for _ in range(arity)])
    while len(free) < r + 1:
        add(Copier(2), [take()])
    ports = draw(st.permutations(free))
    wires.extend((ports[j], (f"r{j}", 0)) for j in range(r))
    net = Netlist(field, gates, wires, ports[r])
    if draw(st.booleans()):
        net = net.with_output_register(draw(scalar(SEEDS)))
    return net


@pytest.mark.parametrize("field", PLAN_FIELDS, ids=repr)
@settings(max_examples=60)
@given(data=st.data())
def test_integer_plan_matches_boxed_tick(field, data):
    """Tick counts on both sides of the content strip's period."""
    net = data.draw(mixed_denominator_netlists(field))
    expected = boxed_simulate(net, 40)
    for steps in (0, 1, 3, 4, 5, 17, 40):
        samples = net.simulate(steps)
        assert samples == expected[:steps]
        assert all(type(x) is type(field.one()) for x in samples)
    assert net.to_linear_system() == boxed_linear_system(net)


@pytest.mark.parametrize("field", PLAN_FIELDS[1:], ids=repr)
@given(data=st.data())
def test_every_slot_of_a_tick_is_a_residue(field, data):
    """Over GF(p) each multiplier and adder reduces its slot: deferring the
    reduction lets integers grow with the netlist's depth, and over a deep
    chain of multipliers one tick then costs seconds."""
    net = data.draw(mixed_denominator_netlists(field))
    p = field.modulus
    state = data.draw(st.lists(st.integers(0, p - 1), min_size=len(net._seeds), max_size=len(net._seeds)))
    assert all(0 <= v < p for v in net._tick(state))


def test_mixed_denominators_meet_at_one_adder():
    """r0 = 1/6 through 1/18 and r1 = -3/4 through 7/12 then 2 meet at a
    3-way adder with r2 = 5, so the adder's inputs carry m = 18, 12 and 1;
    the sum feeds back into every register, and a delayed copy of it is the
    output."""
    f = dict(zip(("a", "b", "c"), (Fraction(1, 18), Fraction(7, 12), Fraction(2))))
    gates = {
        "r0": Register(Fraction(1, 6)), "r1": Register(Fraction(-3, 4)), "r2": Register(Fraction(5)),
        "ma": Multiplier(f["a"]), "mb": Multiplier(f["b"]), "mc": Multiplier(f["c"]),
        "sum": Adder(3), "fan": Copier(4),
    }
    wires = [
        (("r0", 0), ("ma", 0)), (("r1", 0), ("mb", 0)), (("mb", 0), ("mc", 0)),
        (("ma", 0), ("sum", 0)), (("mc", 0), ("sum", 1)), (("r2", 0), ("sum", 2)),
        (("sum", 0), ("fan", 0)), (("fan", 0), ("r0", 0)), (("fan", 1), ("r1", 0)),
        (("fan", 2), ("r2", 0)),
    ]
    net = Netlist(QQ, gates, wires, ("fan", 3)).with_output_register(Fraction(2, 9))
    assert net.simulate(40) == boxed_simulate(net, 40)
    assert net.to_linear_system() == boxed_linear_system(net)
    assert to_rational(net).expand(40) == net.simulate(40)


@pytest.mark.parametrize("field", PLAN_FIELDS, ids=repr)
@settings(max_examples=40)
@given(data=st.data())
def test_plan_does_not_depend_on_the_order_of_the_gates(field, data):
    """The gates in a drawn order; the registers keep theirs, the state basis
    of the linear system."""
    net = data.draw(mixed_denominator_netlists(field))
    order = data.draw(st.permutations(list(net.gates)))
    registers = iter([name for name in net.gates if isinstance(net.gates[name], Register)])
    order = [next(registers) if isinstance(net.gates[name], Register) else name for name in order]
    shuffled = Netlist(field, {name: net.gates[name] for name in order}, net.wires, net.output)
    assert shuffled.simulate(40) == net.simulate(40)
    assert shuffled.to_linear_system() == net.to_linear_system()


@pytest.mark.parametrize("field", PLAN_FIELDS, ids=repr)
@settings(max_examples=40)
@given(data=st.data())
def test_register_free_loop_is_a_combinational_cycle(field, data):
    """A wire src -> dst of a valid netlist is cut, and a loop closes through
    an adder fed by src and a copier that feeds dst, with drawn multipliers
    and branches between them: a branch is a copier whose second output
    comes back through a register to an adder.  The loop's gates land
    anywhere among the netlist's."""
    net = data.draw(mixed_denominator_netlists(field))
    (src, dst), *wires = data.draw(st.permutations(net.wires))
    gates = {}

    def add(gate, port):
        name = f"loop{len(gates)}"
        gates[name] = gate
        wires.append((port, (name, 0)))
        return name

    entry = add(Adder(2), src)
    port = (entry, 0)
    for branch in data.draw(st.lists(st.booleans(), max_size=4)):
        if branch:
            fork = add(Copier(2), port)
            register = add(Register(field.one()), (fork, 1))
            port = (add(Adder(2), (fork, 0)), 0)
            wires.append(((register, 0), (port[0], 1)))
        else:
            port = (add(Multiplier(field.coerce(data.draw(st.integers(-3, 3)))), port), 0)
    exit_ = add(Copier(2), port)
    wires += [((exit_, 0), dst), ((exit_, 1), (entry, 1))]
    everything = {**net.gates, **gates}
    order = data.draw(st.permutations(list(everything)))
    with pytest.raises(IllFormedCircuit, match="combinational cycle"):
        Netlist(field, {name: everything[name] for name in order}, wires, net.output)
