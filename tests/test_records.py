"""The shared line reader of the four file formats, and what it checks."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcalc import (
    CanonicalCircuit,
    FormatError,
    PrimeField,
    QQ,
    StreamCalcError,
    WeightedAutomaton,
    format_automaton,
    format_canonical,
    format_netlist,
    format_system,
    parse_automaton,
    parse_canonical,
    parse_circuit_file,
    parse_netlist,
    parse_system,
    realize,
)
from streamcalc.cli import main
from streamcalc.expr import parse, to_text
from streamcalc.records import MAX_DIMENSION
from util import stream

SYSTEM = "field q\nn 2\nm 1\nF 0,-1;1,2\nH 1,2\nv0 1,0\n"
AUTOMATON = "field q\nstates 2\nout 1 1\nout 2 2\nedge 1 2 1\n"
NETLIST = (
    "field q\n"
    "gate r1 register init=1\n"
    "gate c1 copier fanout=2\n"
    "gate m1 multiplier r=2\n"
    "wire r1.out0 -> c1.in0\n"
    "wire c1.out0 -> m1.in0\n"
    "wire m1.out0 -> r1.in0\n"
    "output c1.out1\n"
)
CANONICAL = "field=q\nM=0,-1;1,2\nN=1,2\nr=1,0\n"

# format: parser, valid text, a line of unknown key, a second copy of a
# single-use key, and a line with a bad scalar in place of a valid one
FORMATS = {
    "system": (parse_system, SYSTEM, "v 1,0", "n 2", ("H 1,2", "H 1,x")),
    "automaton": (
        parse_automaton, AUTOMATON, "weight 1 1 1", "states 2", ("edge 1 2 1", "edge 1 2 y")
    ),
    "netlist": (
        parse_netlist, NETLIST, "gates r2 register init=0", "output m1.out0", ("r=2", "r=1/0")
    ),
    "canonical": (parse_canonical, CANONICAL, "X=1", "M=1", ("r=1,0", "r=1,q")),
}


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("fault", ["unknown key", "repeated key", "bad scalar"])
def test_faulty_line_is_named(fmt, fault):
    parser, text, unknown, repeated, (good, bad) = FORMATS[fmt]
    text = "# a comment\n\n" + text  # comment and blank lines count
    if fault == "bad scalar":
        number = text[: text.index(good)].count("\n") + 1
        text = text.replace(good, bad)
    else:
        text += unknown if fault == "unknown key" else repeated
        number = text.count("\n") + 1
    with pytest.raises(FormatError) as info:
        parser(text)
    assert info.value.line == number
    assert str(info.value).startswith(f"line {number}: ")


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_field_line_may_come_last(fmt):
    parser, text, *_ = FORMATS[fmt]
    gf = text.replace("field q", "field gf:7").replace("field=q", "field=gf:7")
    first, rest = gf.split("\n", 1)
    assert parser(rest + first + "\n") == parser(gf)
    assert parser(gf).field == PrimeField(7)


def test_ragged_matrix_line_is_named():
    with pytest.raises(FormatError, match="line 4: matrix rows of unequal length"):
        parse_system(SYSTEM.replace("F 0,-1;1,2", "F 0,-1;1"))


def test_automaton_field_after_out_line():
    automaton = parse_automaton("states 2\nout 1 3\nedge 1 2 5\nfield gf:7\n")
    assert automaton.field == PrimeField(7)
    assert automaton.outputs == (3, 0)
    assert automaton.weights.entries[0][1] == 5


def test_typos_and_second_field_lines_are_rejected():
    # once ignored: an unpointed system, a system over Q, the first field line
    with pytest.raises(FormatError, match="line 6: unknown key 'v'"):
        parse_system(SYSTEM.replace("v0", "v"))
    with pytest.raises(FormatError, match="line 1: unknown key 'feild=gf:7'"):
        parse_system("feild=gf:7\n" + SYSTEM)
    with pytest.raises(FormatError, match="line 6: repeated key 'field'"):
        parse_automaton(AUTOMATON + "field gf:7\n")
    with pytest.raises(FormatError, match="line 9: repeated key 'field'"):
        parse_netlist(NETLIST + "field gf:7\n")


def test_packed_canonical_line():
    circuit = parse_canonical(CANONICAL)
    assert parse_canonical("field=q; M=0,-1;1,2; N=1,2; r=1,0") == circuit
    with pytest.raises(FormatError, match="line 2: repeated key 'M'"):
        parse_canonical("M=0,-1;1,2\nN=1,2; M=1; r=1,0")
    with pytest.raises(FormatError, match="line 1: expected key=value"):
        parse_canonical("M\nN=1\nr=1\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("M=1,2\nN=1,2\nr=1,0\n", "line 1: M is 1 x 2, not square"),
        ("M=1\nN=1,2\nr=1\n", "line 2: N must be a 1 x 1 row"),
        ("M=1\nN=1;2\nr=1\n", "line 2: N must be a 1 x 1 row"),
        ("M=1\nN=1\nr=1,2\n", "line 3: r of length 2 disagrees with M's size 1"),
    ],
)
def test_misshaped_canonical_line_is_named(text, message):
    with pytest.raises(FormatError) as info:
        parse_canonical(text)
    assert str(info.value) == message


def test_missing_keys_name_no_line():
    for parser, text, key in (
        (parse_system, "field q\nn 0\n", "m"),
        (parse_automaton, "field q\n", "states"),
        (parse_netlist, "field q\n", "output"),
        (parse_canonical, "M=1\nN=1\n", "r"),
    ):
        with pytest.raises(FormatError) as info:
            parser(text)
        assert info.value.line is None
        assert str(info.value) == f"missing key {key!r}"


@pytest.mark.parametrize(
    "parser, text",
    [
        (parse_automaton, "field q\nstates 1000000000\n"),
        (parse_system, "field q\nn 0\nm 1000000000\n"),
        (parse_system, f"field q\nn {MAX_DIMENSION + 1}\nm 1\nF 0\nH 0\n"),
        (parse_automaton, "states " + "9" * 5000 + "\n"),
    ],
)
def test_declared_dimensions_are_bounded(parser, text):
    start = time.perf_counter()
    with pytest.raises(FormatError, match=f"is outside 0..{MAX_DIMENSION}|outside 1.."):
        parser(text)
    assert time.perf_counter() - start < 0.5


def test_dimension_at_the_bound_is_accepted():
    system = parse_system(f"field q\nn 0\nm {MAX_DIMENSION}\n")
    assert system.num_outputs == MAX_DIMENSION


@pytest.mark.parametrize(
    "text, key, number",
    [
        ("field q\nn 0\nm 1\nF 1\n", "F", 4),
        ("field q\nH 1\nn 0\nm 1\n", "H", 2),
        ("field q\nn 0\nm 1\nF \nH \nv0\n", "F", 4),
    ],
)
def test_stateless_system_takes_no_matrix_lines(tmp_path, capsys, text, key, number):
    with pytest.raises(FormatError, match=f"line {number}: n 0 takes no {key} line"):
        parse_system(text)
    path = tmp_path / "s.system"
    path.write_text(text + "v0\n" if "v0" not in text else text)
    assert main(["equal", f"system:{path}", "expr:0"]) == 2
    assert capsys.readouterr().err == f"error: {path}: line {number}: n 0 takes no {key} line\n"


def test_stateless_system_round_trips():
    stateless = realize([stream([0])])
    assert format_system(stateless) == "field q\nn 0\nm 1\nv0\n"
    assert parse_system(format_system(stateless)) == stateless


@pytest.mark.parametrize(
    "parser, text, number",
    [
        (parse_automaton, "states ²\n", 1),
        (parse_automaton, "states 2\nout ² 1\n", 2),
        (parse_system, "field q\nn ²\nm 1\n", 2),
        (parse_system, "field gf:²\nn 0\nm 1\n", 1),
        (parse_netlist, NETLIST.replace("fanout=2", "fanout=²"), 3),
        (parse_netlist, NETLIST.replace("c1.out1", "c1.out²"), 8),
        (parse_netlist, NETLIST.replace("r1.out0", "r1.out²"), 5),
    ],
)
def test_non_ascii_digits_are_format_errors(parser, text, number):
    with pytest.raises(FormatError) as info:
        parser(text)
    assert info.value.line == number


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "1+X²", "--n", "2"),
        ("eval", "1/(1-X)", "--n", "2", "--field", "gf:²"),
        ("equal", "expr:1", "expr:1²"),
    ],
)
def test_non_ascii_digits_on_the_command_line(capsys, argv):
    assert main(list(argv)) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_cli_errors_name_file_and_line(tmp_path, capsys):
    automaton = tmp_path / "a.automaton"
    automaton.write_text("field q\nstates 2\n\nedge 1 3 1\n")
    system = tmp_path / "s.system"
    system.write_text(SYSTEM.replace("v0", "v"))
    circuit = tmp_path / "c.circuit"
    circuit.write_text(CANONICAL + "X=2\n")
    cases = [
        (("automaton", "eval", "--file", str(automaton), "--state", "1", "--n", "1"), automaton, 4),
        (("circuit", "sim", "--file", str(circuit), "--n", "2"), circuit, 5),
        (("equal", f"system:{system}", "expr:1"), system, 6),
        (("equal", f"system:{system}@1,0", "expr:1"), system, 6),
        (("equal", f"circuit:{circuit}", "expr:1"), circuit, 5),
        (("equal", f"automaton:{automaton}@1", "expr:1"), automaton, 4),
        (("equal", f"automaton:{automaton}@²", "expr:1"), None, None),
    ]
    for argv, path, number in cases:
        assert main(list(argv)) == 2, argv
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, argv
        if path is not None:
            assert err.startswith(f"error: {path}: line {number}: "), (argv, err)


def test_to_text_renders_a_long_chain_without_recursion():
    chain = "+".join(["X"] * 3000)
    assert to_text(parse(chain)) == " + ".join(["X"] * 3000)
    product = "*".join(["(1-X)"] * 3000)
    assert to_text(parse(product)) == "*".join(["(1 - X)"] * 3000)


# Round trips through comments, blank lines, a trailing field line and, for
# canonical circuits, the packed one-line form.
FIELDS = (QQ, PrimeField(2), PrimeField(101))


@st.composite
def streams(draw):
    field = draw(st.sampled_from(FIELDS))
    coeffs = st.lists(st.integers(-4, 4), min_size=1, max_size=5)
    den = [1] + draw(st.lists(st.integers(-4, 4), max_size=4))
    return stream(draw(coeffs), den, field)


def _shuffled(text, separator="\n"):
    first, rest = text.rstrip("\n").split("\n", 1)
    return "# generated\n\n" + separator.join(rest.split("\n") + [first]) + "\n"


@given(streams())
def test_round_trips_with_comments_and_field_last(s):
    pointed = realize([s])
    assert parse_system(_shuffled(format_system(pointed))) == pointed
    if pointed.dim:
        automaton = WeightedAutomaton.from_linear_system(pointed)
        assert parse_automaton(_shuffled(format_automaton(automaton))) == automaton
        circuit = CanonicalCircuit.from_linear_system(pointed)
        text = format_canonical(circuit)
        assert parse_canonical(_shuffled(text)) == circuit
        assert parse_canonical(_shuffled(text, "; ")) == circuit
        netlist = circuit.to_netlist()
        assert parse_circuit_file(_shuffled(format_netlist(netlist))) == netlist


# Fuzzing: text made of the formats' keywords, digits, '²', punctuation and
# newlines either parses or raises a StreamCalcError, and never hangs.
WORDS = (
    "field", "q", "gf:7", "gf:4", "n", "m", "F", "H", "v0", "states", "out", "edge",
    "gate", "wire", "output", "register", "multiplier", "adder", "copier",
    "init", "r", "arity", "fanout", "M", "N", "r1", "m1", "c1", ".out0", ".in1",
    "0", "1", "2", "3", "12", "²", ",", ";", "=", "#", ".", "/", "-", ">", "->",
    " ", " ", " ", "\n", "\n",
)
PARSERS = (parse_system, parse_automaton, parse_netlist, parse_canonical, parse_circuit_file)


@settings(max_examples=300)
@given(st.sampled_from(PARSERS), st.lists(st.sampled_from(WORDS), max_size=40))
def test_fuzzed_text_parses_or_raises_a_domain_error(parser, words):
    start = time.perf_counter()
    try:
        parser("".join(words))
    except StreamCalcError:
        pass
    assert time.perf_counter() - start < 2


@settings(max_examples=300)
@given(
    st.sampled_from(PARSERS),
    st.sampled_from((SYSTEM, AUTOMATON, NETLIST, CANONICAL)),
    st.lists(st.tuples(st.integers(0, 200), st.sampled_from(WORDS)), max_size=6),
)
def test_mutated_files_parse_or_raise_a_domain_error(parser, text, edits):
    for position, word in edits:
        position %= len(text) + 1
        text = text[:position] + word + text[position:]
    try:
        parser(text)
    except StreamCalcError:
        pass
