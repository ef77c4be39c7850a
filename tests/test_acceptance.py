"""Acceptance suite: worked-example goldens plus randomized law checks.

Every check is exact; no tolerances anywhere.  Each test prints one
``criterion N: PASS`` line (visible under ``pytest -s``).
"""

import random
from fractions import Fraction

from streamcalc import (
    CanonicalCircuit,
    LinearSystem,
    Matrix,
    QQ,
    RationalFunction,
    RationalStream,
    StreamPrefix,
    WeightedAutomaton,
    inverse,
    minimize,
    realize,
    resolvent,
    to_rational,
)
from streamcalc.cli import main
from streamcalc.expr import evaluate_text
from streamcalc.fields import PrimeField
from streamcalc.poly import FractionField
from streamcalc.analysis import nonrationality_probe
from util import poly, random_stream, random_system, triangular_prefix

GF101 = PrimeField(101)
CASES = 500


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out


def test_criterion_1_expansion_goldens(capsys):
    out = run_cli(capsys, "eval", "1/(1-3*X)", "--n", "6")
    assert out.splitlines()[0] == "1, 3, 9, 27, 81, 243"
    out = run_cli(capsys, "eval", "1/(1-X)^2", "--n", "6")
    assert out.splitlines()[0] == "1, 2, 3, 4, 5, 6"
    print("criterion 1: PASS (geometric and natural-number expansions)")


def test_criterion_2_derivative_goldens(capsys):
    first = run_cli(capsys, "derive", "1/(1-X)^2", "--k", "1")
    assert first == "(2 - X)/(1 - 2*X + X^2)\n"
    second = run_cli(capsys, "derive", "1/(1-X)^2", "--k", "2")
    assert second == "(3 - 2*X)/(1 - 2*X + X^2)\n"
    assert evaluate_text(first.strip()) == evaluate_text("(2-X)/(1-X)^2")
    assert evaluate_text(second.strip()) == evaluate_text("(3-2*X)/(1-X)^2")
    print("criterion 2: PASS (derivative chain, canonical bytes)")


def test_criterion_3_matrix_inverse_goldens():
    kx = FractionField(QQ)

    def rf(num, den=(1,)):
        return RationalFunction(poly(QQ, *num), poly(QQ, *den))

    res = resolvent(Matrix(QQ, [[1, 1], [0, 0]]))
    assert res == Matrix(
        kx, [[rf((1,), (1, -1)), rf((0, 1), (1, -1))], [rf((0,)), rf((1,))]]
    )
    inv = inverse(
        Matrix(kx, [[poly(QQ, 1), poly(QQ, 0, 1)], [poly(QQ, 0, -1), poly(QQ, 1, -2)]])
    )
    square = (1, -2, 1)
    assert inv == Matrix(
        kx,
        [
            [rf((1, -2), square), rf((0, -1), square)],
            [rf((0, 1), square), rf((1,), square)],
        ],
    )
    print("criterion 3: PASS (resolvent and fraction-field inverses)")


def test_criterion_4_realization_goldens():
    single = realize([evaluate_text("1/(1-X)^2")])
    assert single.dim == 2
    assert single.system.output == Matrix(QQ, [[1, 2]])
    assert single.system.dynamics == Matrix(QQ, [[0, -1], [1, 2]])
    pair = realize([evaluate_text("1/(1-2*X)"), evaluate_text("1/(1-X)^2")])
    assert pair.dim == 3
    assert pair.system.output == Matrix(QQ, [[1, 2, 4], [1, 2, 3]])
    assert pair.system.dynamics == Matrix(QQ, [[0, 0, 2], [1, 0, -5], [0, 1, 4]])
    print("criterion 4: PASS (companion realizations)")


def test_criterion_5_behaviour_goldens():
    dynamics = Matrix(QQ, [[1, 1], [0, 0]])
    summed = LinearSystem(dynamics, Matrix(QQ, [[1, 1]]))
    geometric = evaluate_text("1/(1-X)")
    assert summed.behaviour((1, 0)) == (geometric,)
    assert summed.behaviour((0, 1)) == (geometric,)
    weighted = LinearSystem(dynamics, Matrix(QQ, [[1, 2]]))
    assert weighted.behaviour((0, 1)) == (evaluate_text("(2-X)/(1-X)"),)
    print("criterion 5: PASS (symbolic behaviours at basis points)")


def test_criterion_6_circuit_golden():
    circuit = CanonicalCircuit(
        Matrix(QQ, [[0, -1], [1, 2]]), Matrix(QQ, [[1, 2]]), (1, 0)
    )
    assert circuit.to_netlist().simulate(12) == [Fraction(k) for k in range(1, 13)]
    assert circuit.behaviour() == evaluate_text("1/(1-X)^2")
    print("criterion 6: PASS (netlist simulation and closed form)")


def test_criterion_7_automaton_golden():
    automaton = WeightedAutomaton((1, 2), Matrix(QQ, [[0, 1], [-1, 2]]))
    assert [automaton.path_sum(0, k) for k in range(4)] == [1, 2, 3, 4]
    assert [automaton.path_sum(1, k) for k in range(4)] == [2, 3, 4, 5]
    behaviour = automaton.behaviour()
    assert behaviour[0] == evaluate_text("1/(1-X)^2")
    assert behaviour[1] == evaluate_text("(2-X)/(1-X)^2")
    for q in range(2):
        expansion = behaviour[q].expand(4)
        for k in range(4):
            assert automaton.path_sum(q, k) == expansion[k]
    print("criterion 7: PASS (path-sum vs closed-form agreement)")


def test_criterion_8_round_trips():
    rng = random.Random(88)
    for field in (QQ, GF101):
        for _ in range(200):
            s = random_stream(rng, field=field)
            pointed = realize([s])
            assert to_rational(pointed) == s
            assert to_rational(CanonicalCircuit.from_linear_system(pointed)) == s
            automaton = WeightedAutomaton.from_linear_system(pointed)
            assert automaton.behaviour()[0] == s
    print("criterion 8: PASS (200 round-trips over rationals and GF(101))")


def test_criterion_9_three_way_oracle_agreement():
    rng = random.Random(99)
    for _ in range(100):
        n = rng.randint(1, 4)
        weights = Matrix(QQ, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        outputs = tuple(rng.randint(-3, 3) for _ in range(n))
        automaton = WeightedAutomaton(outputs, weights)
        streams = automaton.behaviour()
        expansions = [s.expand(7) for s in streams]
        column = Matrix(QQ, [[v] for v in outputs], cols=1)
        power = Matrix.identity(QQ, n)
        for k in range(7):
            applied = power * column
            for q in range(n):
                enumerated = automaton.path_sum(q, k)
                assert enumerated == expansions[q][k]
                assert enumerated == applied.entries[q][0]
            power = power * weights
    print("criterion 9: PASS (100 automata, three independent computations)")


def test_criterion_10_probe_goldens():
    report = nonrationality_probe(triangular_prefix(QQ, 41), 10)
    assert report.verdict == "NotRationalBelowBound(10)"
    assert report.rank == 11
    report = nonrationality_probe(evaluate_text("1/(1-X)^2").expand(11), 5)
    assert report.verdict == "RationalWitnessConsistent"
    assert report.rank == 2
    print("criterion 10: PASS (bounded non-rationality evidence)")


def test_criterion_11a_field_axioms():
    rng = random.Random(111)

    def random_rational():
        return Fraction(rng.randint(-60, 60), rng.randint(1, 40))

    for _ in range(CASES):
        a, b, c = random_rational(), random_rational(), random_rational()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a and a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        if a != 0:
            assert a * QQ.inv(a) == 1
        x, y, z = (GF101.coerce(rng.randrange(101)) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        if x != GF101.zero():
            assert x * GF101.inv(x) == GF101.one()
    print("criterion 11a: PASS (field axioms, 500 cases)")


def test_criterion_11b_fundamental_theorem():
    rng = random.Random(112)
    x = RationalStream.x(QQ)
    for _ in range(CASES):
        s = random_stream(rng, allow_zero=True)
        head = RationalStream.constant(QQ, s.initial_value())
        assert s == head + x * s.derivative()
    print("criterion 11b: PASS (fundamental theorem, 500 cases)")


def test_criterion_11c_x_commutation():
    rng = random.Random(113)
    x = RationalStream.x(QQ)
    for _ in range(CASES):
        s = random_stream(rng, allow_zero=True)
        assert x * s == s * x
    print("criterion 11c: PASS (commutation with the shift stream, 500 cases)")


def test_criterion_11d_inverse_law_on_prefixes():
    rng = random.Random(114)
    unit = [QQ.one()] + [QQ.zero()] * 15
    done = 0
    while done < CASES:
        s = random_stream(rng, max_deg=4)
        if s.initial_value() == 0:
            continue
        prefix = StreamPrefix.from_rational(s)
        assert (prefix * prefix.inverse()).take(16) == unit
        done += 1
    print("criterion 11d: PASS (inverse law on 16-term prefixes, 500 cases)")


def test_criterion_11e_dimension_bound():
    rng = random.Random(115)
    for _ in range(CASES):
        s = random_stream(rng, allow_zero=True)
        dim = realize([s]).dim
        assert dim <= max(s.num.degree + 1, s.den.degree)
        if s.num.degree < s.den.degree:
            assert dim <= max(s.num.degree, s.den.degree)
    print("criterion 11e: PASS (realization dimension bound, 500 cases)")


def test_criterion_11f_minimize_laws():
    rng = random.Random(116)
    for _ in range(CASES):
        pointed = random_system(rng, max_dim=3, outputs=rng.randint(1, 2), bound=2)
        reduced = minimize(pointed)
        assert reduced.dim <= pointed.dim
        assert reduced.behaviour() == pointed.behaviour()
    print("criterion 11f: PASS (minimization laws, 500 cases)")
