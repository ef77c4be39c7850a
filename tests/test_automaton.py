import random
import time

import pytest

from streamcalc import (
    DimensionMismatch,
    StreamCalcError,
    FormatError,
    Matrix,
    PointedLinearSystem,
    QQ,
    UnsupportedInitialVector,
    WeightedAutomaton,
    format_automaton,
    parse_automaton,
    realize,
)
from streamcalc.automaton import MAX_PATHS
from streamcalc.expr import evaluate_text
from streamcalc.fields import PrimeField
from util import random_automaton, random_stream

GF7 = PrimeField(7)

TWO_STATE = WeightedAutomaton((1, 2), Matrix(QQ, [[0, 1], [-1, 2]]))


def test_path_sums_first_state():
    assert [TWO_STATE.path_sum(0, k) for k in range(3)] == [1, 2, 3]


def test_path_sums_second_state():
    assert [TWO_STATE.path_sum(1, k) for k in range(3)] == [2, 3, 4]


def test_path_sum_without_transitions():
    quiet = WeightedAutomaton((5,), Matrix.zero(QQ, 1, 1))
    assert quiet.path_sum(0, 0) == 5
    assert quiet.path_sum(0, 1) == 0
    assert quiet.path_sum(0, 4) == 0


def test_closed_form_behaviour_golden():
    behaviour = TWO_STATE.behaviour()
    assert behaviour[0] == evaluate_text("1/(1-X)^2")
    assert behaviour[1] == evaluate_text("(2-X)/(1-X)^2")


def test_single_state_self_loop():
    a = WeightedAutomaton((1,), Matrix(QQ, [[4]]))
    assert a.behaviour()[0] == evaluate_text("1/(1-4*X)")


def test_zero_outputs_give_zero_streams():
    a = WeightedAutomaton((0, 0), Matrix(QQ, [[0, 1], [-1, 2]]))
    assert not any(a.behaviour())


def test_from_linear_system_transposes():
    pointed = realize([evaluate_text("1/(1-X)^2")])
    automaton = WeightedAutomaton.from_linear_system(pointed)
    assert automaton == TWO_STATE


def test_from_one_dimensional_system():
    pointed = realize([evaluate_text("1/(1-4*X)")])
    automaton = WeightedAutomaton.from_linear_system(pointed)
    assert automaton == WeightedAutomaton((1,), Matrix(QQ, [[4]]))


def test_from_linear_system_requires_basis_initial_state():
    pointed = realize([evaluate_text("1/(1-X)^2")])
    moved = PointedLinearSystem(pointed.system, (0, 1))
    with pytest.raises(UnsupportedInitialVector):
        WeightedAutomaton.from_linear_system(moved)


def test_from_linear_system_requires_single_output():
    pointed = realize([evaluate_text("1/(1-X)"), evaluate_text("X")])
    with pytest.raises(DimensionMismatch):
        WeightedAutomaton.from_linear_system(pointed)


def test_to_linear_system_round_trip():
    for state in (0, 1):
        pointed = TWO_STATE.to_linear_system(state)
        assert pointed.behaviour()[0] == TWO_STATE.behaviour()[state]
    again = WeightedAutomaton.from_linear_system(TWO_STATE.to_linear_system(0))
    assert again == TWO_STATE


def test_three_way_coefficient_agreement():
    rng = random.Random(41)
    for _ in range(20):
        automaton = random_automaton(rng)
        streams = automaton.behaviour()
        outputs = Matrix(automaton.field, [[v] for v in automaton.outputs], cols=1)
        power = Matrix.identity(automaton.field, automaton.size)
        for k in range(7):
            applied = power * outputs
            for q in range(automaton.size):
                enumerated = automaton.path_sum(q, k)
                assert enumerated == streams[q].expand(k + 1)[k]
                assert enumerated == applied.entries[q][0]
            power = power * automaton.weights


def test_synthesis_round_trip_random():
    rng = random.Random(42)
    for _ in range(15):
        s = random_stream(rng, max_deg=4)
        automaton = WeightedAutomaton.from_linear_system(realize([s]))
        assert automaton.behaviour()[0] == s


def test_file_round_trip():
    text = format_automaton(TWO_STATE)
    assert text == (
        "field q\nstates 2\nout 1 1\nout 2 2\n"
        "edge 1 2 1\nedge 2 1 -1\nedge 2 2 2\n"
    )
    assert parse_automaton(text) == TWO_STATE
    assert format_automaton(parse_automaton(text)) == text


def test_file_round_trip_gf():
    a = WeightedAutomaton(
        (GF7.coerce(1), GF7.coerce(0)), Matrix(GF7, [[0, 3], [6, 0]])
    )
    assert parse_automaton(format_automaton(a)) == a


def test_file_rejects_bad_indices():
    with pytest.raises(FormatError):
        parse_automaton("states 2\nout 3 1\n")
    with pytest.raises(FormatError):
        parse_automaton("states 1\nedge 1 1 1\nedge 1 1 2\n")
    with pytest.raises(FormatError):
        parse_automaton("out 1 1\nstates 1\n")


def test_path_sum_walks_long_paths():
    # one recursion frame per step would overflow the interpreter's stack
    loop = WeightedAutomaton((1,), Matrix(QQ, [[1]]))
    assert loop.path_sum(0, 5000) == 1


def test_path_sum_stops_at_the_path_cap():
    # every path of length k survives: 2^(k+1) - 1 path prefixes
    complete = WeightedAutomaton((1, 1), Matrix(QQ, [[1, 1], [1, 1]]))
    assert complete.path_sum(0, 15) == 2 ** 15
    assert 2 ** 16 - 1 <= MAX_PATHS < 2 ** 17 - 1
    start = time.perf_counter()
    with pytest.raises(StreamCalcError, match="path prefixes"):
        complete.path_sum(0, 40)
    assert time.perf_counter() - start < 10
