import contextlib
import io
import os
import subprocess
import sys
import time
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamcalc import cli, format_netlist, parse_canonical
from streamcalc.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_prints_prefix_and_closed_form(capsys):
    code, out, _ = run(capsys, "eval", "1/(1-3*X)", "--n", "6")
    assert code == 0
    assert out == "1, 3, 9, 27, 81, 243\n(1)/(1 - 3*X)\n"


def test_eval_in_prime_field(capsys):
    code, out, _ = run(capsys, "eval", "1/(1-3*X)", "--n", "4", "--field", "gf:7")
    assert code == 0
    assert out.splitlines()[0] == "1, 3, 2, 6"


def test_exhausted_memory_is_one_line_with_exit_1(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli.expr, "evaluate_text", exhausted)
    code, out, err = run(capsys, "eval", "X^100000000", "--n", "1")
    assert (code, out, err) == (1, "", "error: out of memory\n")


def test_derive(capsys):
    code, out, _ = run(capsys, "derive", "1/(1-X)^2", "--k", "1")
    assert (code, out) == (0, "(2 - X)/(1 - 2*X + X^2)\n")
    code, out, _ = run(capsys, "derive", "1/(1-X)^2", "--k", "2")
    assert (code, out) == (0, "(3 - 2*X)/(1 - 2*X + X^2)\n")


def test_realize_writes_system_file(capsys):
    code, out, _ = run(capsys, "realize", "1/(1-2*X)", "1/(1-X)^2")
    assert code == 0
    assert out == (
        "field q\nn 3\nm 2\nF 0,0,2;1,0,-5;0,1,4\nH 1,2,4;1,2,3\nv0 1,0,0\n"
    )


def test_circuit_synth_and_sim(tmp_path, capsys):
    code, out, _ = run(capsys, "circuit", "synth", "1/(1-X)^2")
    assert code == 0
    assert out == "field=q\nM=0,-1;1,2\nN=1,2\nr=1,0\n"
    path = tmp_path / "naturals.circuit"
    path.write_text(out)
    code, out, _ = run(capsys, "circuit", "sim", "--file", str(path), "--n", "6")
    assert (code, out) == (0, "1, 2, 3, 4, 5, 6\n")


def test_circuit_sim_accepts_netlists(tmp_path, capsys):
    from streamcalc import format_netlist, parse_canonical

    circuit = parse_canonical("M=0,-1;1,2\nN=1,2\nr=1,0\n")
    path = tmp_path / "naturals.netlist"
    path.write_text(format_netlist(circuit.to_netlist()))
    code, out, _ = run(capsys, "circuit", "sim", "--file", str(path), "--n", "4")
    assert (code, out) == (0, "1, 2, 3, 4\n")


def test_automaton_synth_and_eval(tmp_path, capsys):
    code, out, _ = run(capsys, "automaton", "synth", "1/(1-X)^2")
    assert code == 0
    assert out == (
        "field q\nstates 2\nout 1 1\nout 2 2\nedge 1 2 1\nedge 2 1 -1\nedge 2 2 2\n"
    )
    path = tmp_path / "naturals.automaton"
    path.write_text(out)
    for method in ("path", "closed"):
        code, out, _ = run(
            capsys, "automaton", "eval", "--file", str(path),
            "--state", "2", "--n", "4", "--method", method,
        )
        assert (code, out) == (0, "2, 3, 4, 5\n")


def test_equal_across_files(tmp_path, capsys):
    run(capsys, "circuit", "synth", "1/(1-X)^2")
    circuit_text = "field=q\nM=0,-1;1,2\nN=1,2\nr=1,0\n"
    circuit_path = tmp_path / "c.txt"
    circuit_path.write_text(circuit_text)
    code, out, _ = run(
        capsys, "equal", f"circuit:{circuit_path}", "expr:1/(1-X)^2"
    )
    assert (code, out) == (0, "equal\n")

    system_path = tmp_path / "s.txt"
    code, out, _ = run(capsys, "realize", "1/(1-X)^2")
    system_path.write_text(out)
    capsys.readouterr()
    code, out, _ = run(
        capsys, "equal", f"system:{system_path}", f"circuit:{circuit_path}"
    )
    assert (code, out) == (0, "equal\n")


def test_equal_reports_distinguishing_index(capsys):
    code, out, _ = run(capsys, "equal", "expr:1/(1-X)", "expr:1/(1-2*X)")
    assert code == 0
    assert out == "not-equal\ndiffers-at 1\n"


def test_equal_system_with_state_override(tmp_path, capsys):
    system_path = tmp_path / "s.txt"
    code, out, _ = run(capsys, "realize", "1/(1-X)^2")
    system_path.write_text(out)
    capsys.readouterr()
    code, out, _ = run(
        capsys, "equal", f"system:{system_path}@0,1", "expr:(2-X)/(1-X)^2"
    )
    assert (code, out) == (0, "equal\n")


def test_rank_report(capsys):
    code, out, _ = run(capsys, "rank", "--expr", "1/(1-X)^2", "--m", "10")
    assert code == 0
    assert out == "prefix_len: 19\nhankel_size: 10\nrank: 2\n"
    code, out, _ = run(capsys, "rank", "--prefix", "1,1,1,1,1", "--m", "3")
    assert code == 0
    assert out.endswith("rank: 1\n")


def test_prefix_with_a_negative_first_value_is_attached_with_equals(capsys):
    code, out, err = run(capsys, "rank", "--prefix=-1,2,0", "--m", "2")
    assert (code, out, err) == (0, "prefix_len: 3\nhankel_size: 2\nrank: 2\n", "")
    code, out, _ = run(capsys, "probe", "--prefix=-1,2,0", "--d", "1")
    assert code == 0 and out.endswith("verdict: NotRationalBelowBound(1)\n")
    for command, bound in (("rank", "--m"), ("probe", "--d")):
        code, out, err = run(capsys, command, "--prefix", "-1,2,0", bound, "1")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and "--prefix" in err
        assert "Traceback" not in err


def test_guess_prints_the_closed_form_eval_prints(capsys):
    code, out, _ = run(capsys, "eval", "1/(1-X-X^2)", "--n", "6")
    assert out.splitlines() == ["1, 1, 2, 3, 5, 8", "(1)/(1 - X - X^2)"]
    code, out, err = run(capsys, "guess", "--prefix=1,1,2,3,5,8")
    assert (code, out, err) == (0, "(1)/(1 - X - X^2)\n", "")
    code, out, _ = run(capsys, "guess", "--prefix", "0,0,0")
    assert (code, out) == (0, "0\n")
    code, out, _ = run(capsys, "guess", "--prefix=-1,1/2,-1/4,1/8")
    assert (code, out) == (0, "(-1)/(1 + 1/2*X)\n")


def test_guess_in_a_prime_field(capsys):
    _, out, _ = run(capsys, "eval", "1/(1-3*X)", "--n", "4", "--field", "gf:7")
    assert out.splitlines()[0] == "1, 3, 2, 6"
    code, guessed, _ = run(capsys, "guess", "--prefix=1,3,2,6", "--field", "gf:7")
    assert (code, guessed) == (0, out.splitlines()[1] + "\n")
    code, out, err = run(capsys, "guess", "--prefix=0,0,1", "--field", "gf:7")
    assert (code, out) == (1, "")
    assert "L = 3" in err


def test_guess_refuses_a_prefix_shorter_than_2l(capsys):
    # L = 2: four terms determine 1/(1 - X - X^2), three do not
    code, out, _ = run(capsys, "guess", "--prefix=1,1,2,3")
    assert (code, out) == (0, "(1)/(1 - X - X^2)\n")
    code, out, err = run(capsys, "guess", "--prefix=1,1,2")
    assert (code, out) == (1, "")
    assert err == (
        "error: 3 coefficients have linear complexity L = 2; a closed form needs at least 2L = 4\n"
    )


@pytest.mark.parametrize(
    "argv",
    (
        ("guess",),
        ("guess", "--prefix", "1,x"),
        ("guess", "--prefix", "-1,2"),
        ("guess", "--prefix=1,2", "--field", "gf:8"),
        ("guess", "--expr", "1/(1-X)"),
    ),
)
def test_guess_usage_and_format_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_probe_reports(capsys):
    code, out, _ = run(capsys, "probe", "--expr", "1/(1-X)^2", "--d", "5")
    assert code == 0
    assert out == (
        "prefix_len: 11\nhankel_size: 6\nrank: 2\nverdict: RationalWitnessConsistent\n"
    )


def test_probe_flags_a_polynomial_above_its_dimension(capsys):
    # 1 + X needs a linear system of dimension 2, so bound 1 rules it out
    code, out, _ = run(capsys, "probe", "--expr", "1+X", "--d", "1")
    assert (code, out.splitlines()[-1]) == (0, "verdict: NotRationalBelowBound(1)")


def test_path_method_stops_at_the_path_cap(tmp_path, capsys):
    path = tmp_path / "complete.automaton"
    path.write_text(
        "field q\nstates 2\nout 1 1\nout 2 1\n"
        "edge 1 1 1\nedge 1 2 1\nedge 2 1 1\nedge 2 2 1\n"
    )
    start = time.perf_counter()
    code, out, err = run(
        capsys, "automaton", "eval", "--file", str(path), "--state", "1",
        "--n", "40", "--method", "path",
    )
    assert time.perf_counter() - start < 10
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("error: path enumeration stopped")


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "eval", "1/X", "--n", "3")
    assert code == 1
    assert "no inverse" in err


def test_syntax_error_exit_code(capsys):
    code, _, err = run(capsys, "eval", "1/((1-X)", "--n", "3")
    assert code == 2
    assert "offset" in err


def test_format_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.system"
    bad.write_text("field q\nn 2\nm 1\nF 0,-1\nH 1,2\n")
    code, _, err = run(capsys, "equal", f"system:{bad}@1,0", "expr:1")
    assert code == 2


def test_empty_matrix_row_in_a_system_file_names_its_line(tmp_path, capsys):
    bad = tmp_path / "bad.system"
    bad.write_text("field q\nn 2\nm 1\nF 1,2;;3,4\nH 1,2\nv0 1,0\n")
    assert run(capsys, "equal", f"system:{bad}", "expr:1") == (2, "", f"error: {bad}: line 4: empty matrix row\n")


def test_misshaped_canonical_file_names_its_line(tmp_path, capsys):
    bad = tmp_path / "c.txt"
    bad.write_text("M=1\nN=1,2\nr=1\n")
    code, out, err = run(capsys, "circuit", "sim", "--file", str(bad), "--n", "3")
    assert (code, out) == (2, "")
    assert err == f"error: {bad}: line 2: N must be a 1 x 1 row\n"


def test_ill_formed_netlist_file_names_itself(tmp_path, capsys):
    bad = tmp_path / "bad.net"
    bad.write_text(
        "field q\ngate r1 register init=1\nwire r1.out0 -> r9.in0\noutput r1.out0\n"
    )
    expected = f"error: {bad}: wire destination references unknown gate r9\n"
    for argv in (
        ("circuit", "sim", "--file", str(bad), "--n", "3"),
        ("equal", f"circuit:{bad}", "expr:1"),
    ):
        assert run(capsys, *argv) == (1, "", expected)


def test_system_state_is_read_as_a_v0_line(tmp_path, capsys):
    stateless = tmp_path / "s0.txt"
    stateless.write_text("field q\nn 0\nm 1\nv0\n")
    code, out, _ = run(capsys, "equal", f"system:{stateless}@", "expr:0")
    assert (code, out) == (0, "equal\n")
    two = tmp_path / "s2.txt"
    two.write_text("field q\nn 2\nm 1\nF 0,1;1,0\nH 1,0\nv0 1,0\n")
    code, out, err = run(capsys, "equal", f"system:{two}@1", "expr:0")
    assert (code, out) == (2, "")
    assert err == "error: state of length 1 disagrees with n 2\n"


def test_usage_error_exit_code(capsys):
    assert main(["eval"]) == 2
    capsys.readouterr()


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "circuit", "sim", "--file", "/nonexistent", "--n", "3")
    assert code == 2


def test_field_mismatch_is_domain_error(tmp_path, capsys):
    system_path = tmp_path / "s.txt"
    code, out, _ = run(capsys, "realize", "1/(1-X)")
    system_path.write_text(out)
    capsys.readouterr()
    code, _, err = run(
        capsys, "equal", f"system:{system_path}", "expr:1/(1-X)", "--field", "gf:7"
    )
    assert code == 1


def test_negative_counts_are_usage_errors(tmp_path, capsys):
    path = tmp_path / "a.automaton"
    path.write_text("field q\nstates 1\nout 1 1\n")
    cases = (
        ("rank", "--expr", "1/(1-X)^2", "--m", "-1"),
        ("probe", "--prefix", "1,1,0,1", "--d", "-1"),
        ("derive", "1/(1-X)", "--k", "-2"),
        ("eval", "1/(1-X)", "--n", "-3"),
        ("eval", "1/(1-X)", "--n", "-0"),
        ("eval", "1/(1-X)", "--n", "-00"),
        ("automaton", "eval", "--file", str(path), "--state", "-1", "--n", "2"),
        ("automaton", "eval", "--file", str(path), "--state", "1", "--n", "-1"),
        ("circuit", "sim", "--file", str(path), "--n", "-1"),
    )
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert len(err.splitlines()) == 1 and "must be nonnegative" in err, argv
        assert "Traceback" not in err


def test_deep_nesting_is_a_parse_error(capsys):
    text = "(" * 2000 + "X" + ")" * 2000
    code, out, err = run(capsys, "eval", text, "--n", "2")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and "nests deeper" in err
    assert "Traceback" not in err


def test_long_sum_evaluates_exactly(capsys):
    code, out, err = run(capsys, "eval", "+".join(["X"] * 3000), "--n", "2")
    assert code == 0
    assert out == "0, 3000\n3000*X\n"
    assert "Traceback" not in err


def test_large_power_finishes(capsys):
    code, out, _ = run(capsys, "eval", "1/(1-X)^3000", "--n", "2")
    assert code == 0
    assert out.splitlines()[0] == "1, 3000"


def test_uncertifiable_modulus_rejected(capsys):
    code, _, err = run(
        capsys, "eval", "1/(1-X)", "--n", "2", "--field", "gf:318665857834031151167461"
    )
    assert code == 2
    assert len(err.splitlines()) == 1 and "cannot be certified prime" in err


def _one_line_error(err):
    return len(err.splitlines()) == 1 and "Traceback" not in err


HUGE = "111111111111111111111111111111"  # 30 digits, above sys.maxsize


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "X", "--n", HUGE),
        ("derive", "X", "--k", HUGE),
        ("rank", "--expr", "X", "--m", HUGE),
        ("probe", "--expr", "X", "--d", HUGE),
        ("rank", "--prefix", "1,2,3", "--m", HUGE),
        ("probe", "--prefix", "1,2,3", "--d", HUGE),
        ("automaton", "eval", "--file", "{automaton}", "--state", "1", "--n", HUGE),
        ("automaton", "eval", "--file", "{automaton}", "--state", "1", "--n", HUGE,
         "--method", "path"),
        ("circuit", "sim", "--file", "{netlist}", "--n", HUGE),
    ],
    ids=["eval", "derive", "rank", "probe", "rank-prefix", "probe-prefix", "automaton-eval",
         "automaton-eval-path", "circuit-sim"],
)
def test_counts_above_maxsize_are_one_line_domain_errors(tmp_path, capsys, argv):
    automaton = tmp_path / "a.automaton"
    automaton.write_text("field q\nstates 1\nout 1 1\n")
    netlist = tmp_path / "ring.netlist"  # one register in a ring through a copier
    netlist.write_text(
        "field q\ngate r register init=1\ngate c copier fanout=2\n"
        "wire r.out0 -> c.in0\nwire c.out0 -> r.in0\noutput c.out1\n"
    )
    code, out, err = run(capsys, *(a.format(automaton=automaton, netlist=netlist) for a in argv))
    assert (code, out) == (1, "")
    assert _one_line_error(err) and "above" in err


def test_overlong_literals_are_one_line_errors(tmp_path, capsys):
    digits = "1" * 5000
    automaton = tmp_path / "a.automaton"
    automaton.write_text("field q\nstates 1\nout 1 1\n")
    long_output = tmp_path / "long.automaton"
    long_output.write_text(f"field q\nstates 1\nout 1 {digits}\n")
    long_port = tmp_path / "port.netlist"
    long_port.write_text(f"field q\ngate r register init=0\noutput r.out{digits}\n")
    long_arity = tmp_path / "arity.netlist"
    long_arity.write_text(f"field q\ngate a adder arity={digits}\noutput a.out0\n")
    cases = (
        ("eval", digits, "--n", "1"),
        ("eval", f"1/{digits}", "--n", "1"),
        ("eval", "1/(1-X)", "--n", "1", "--field", f"gf:{digits}"),
        ("rank", "--prefix", f"1,{digits},1", "--m", "2"),
        ("rank", "--prefix", f"1,1/{digits},1", "--m", "2"),
        ("rank", "--prefix", f"1,{digits},1", "--m", "2", "--field", "gf:7"),
        ("automaton", "eval", "--file", str(long_output), "--state", "1", "--n", "2"),
        ("equal", f"automaton:{automaton}@{digits}", "expr:1"),
        ("circuit", "sim", "--file", str(long_port), "--n", "2"),
        ("circuit", "sim", "--file", str(long_arity), "--n", "2"),
    )
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv[:2]
        assert out == ""
        assert _one_line_error(err) and "5000 digits is too long" in err, argv[:2]


def test_overlong_literal_in_a_subprocess(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "streamcalc", "eval", "1" * 5000, "--n", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert _one_line_error(result.stderr)


@pytest.mark.parametrize("field", ["q", "gf:7"])
def test_zero_stream_synthesis_round_trips(tmp_path, capsys, field):
    code, out, err = run(capsys, "circuit", "synth", "0", "--field", field)
    assert code == 0, err
    assert out == f"field={field}\nM=0\nN=0\nr=1\n"
    circuit = tmp_path / "zero.circuit"
    circuit.write_text(out)
    code, out, err = run(capsys, "automaton", "synth", "0", "--field", field)
    assert code == 0, err
    assert out == f"field {field}\nstates 1\n"
    automaton = tmp_path / "zero.automaton"
    automaton.write_text(out)
    for representation in (f"circuit:{circuit}", f"automaton:{automaton}@1"):
        code, out, _ = run(capsys, "equal", representation, "expr:0", "--field", field)
        assert (code, out) == (0, "equal\n")
        code, out, _ = run(capsys, "equal", representation, "expr:X^3", "--field", field)
        assert (code, out) == (0, "not-equal\ndiffers-at 3\n")
    code, out, _ = run(capsys, "circuit", "sim", "--file", str(circuit), "--n", "3")
    assert (code, out) == (0, "0, 0, 0\n")


def test_counts_take_ascii_digits_only(capsys):
    cases = (
        ("٣", "ASCII digits"),
        (" 1_0", "ASCII digits"),
        ("+3", "ASCII digits"),
        ("٣" * 5000, "ASCII digits"),
        ("1" * 5000, "5000 digits is too long"),
    )
    for count, message in cases:
        code, out, err = run(capsys, "eval", "1/(1-X)", "--n", count)
        assert code == 2, count[:5]
        assert out == ""
        assert _one_line_error(err) and message in err, count[:5]
        assert len(err) < 200


@pytest.mark.parametrize("field", ["q", "gf:101"])
def test_commands_stay_off_the_oracles(tmp_path, capsys, monkeypatch, field):
    from streamcalc import Netlist, StreamPrefix, WeightedAutomaton, matrix

    stream = "(1+X)/(1-X-X^2)"
    system, circuit, automaton = (tmp_path / name for name in ("s", "c", "a"))
    for path, argv in (
        (system, ("realize", stream)),
        (circuit, ("circuit", "synth", stream)),
        (automaton, ("automaton", "synth", stream)),
    ):
        path.write_text(run(capsys, *argv, "--field", field)[1])
    commands = (
        ("eval", stream, "--n", "8"),
        ("derive", stream, "--k", "3"),
        ("realize", stream, "1/(1-2*X)"),
        ("circuit", "synth", stream),
        ("automaton", "synth", stream),
        ("equal", f"expr:{stream}", "expr:1/(1-X)"),
        ("equal", f"system:{system}", f"circuit:{circuit}"),
        ("equal", f"automaton:{automaton}@1", f"expr:{stream}"),
        ("rank", "--expr", stream, "--m", "6"),
        ("probe", "--expr", stream, "--d", "4"),
    )
    commands = [argv + ("--field", field) for argv in commands]
    commands.append(("automaton", "eval", "--file", str(automaton), "--state", "1",
                     "--n", "8", "--method", "closed"))
    expected = [run(capsys, *argv) for argv in commands]

    def forbidden(*args, **kwargs):
        raise AssertionError("a command reached an oracle")

    monkeypatch.setattr(WeightedAutomaton, "path_sum", forbidden)
    monkeypatch.setattr(matrix, "_shifted_complement", forbidden)
    monkeypatch.setattr(StreamPrefix, "at", forbidden)
    monkeypatch.setattr(Netlist, "simulate", forbidden)
    for argv, (code, out, _) in zip(commands, expected):
        assert code == 0 and out, argv
        assert run(capsys, *argv)[:2] == (0, out), argv


# one register feeding a x10 multiplier: 1, 10, 100, ...
TENFOLD = """\
gate r register init=1
gate c copier fanout=2
gate m multiplier r=10
wire r.out0 -> c.in0
wire c.out0 -> m.in0
wire m.out0 -> r.in0
output c.out1
"""


def test_equal_reads_netlists(tmp_path, capsys):
    path = tmp_path / "tenfold.netlist"
    path.write_text(TENFOLD)
    code, out, _ = run(capsys, "equal", f"circuit:{path}", "expr:1/(1-10*X)")
    assert (code, out) == (0, "equal\n")
    code, out, _ = run(capsys, "equal", f"circuit:{path}", "expr:1/(1-10*X) + X^3")
    assert (code, out) == (0, "not-equal\ndiffers-at 3\n")


def test_equal_bounds_netlist_registers(tmp_path, capsys):
    # a ring of 1025 registers, one more than a linear system may have
    n = 1025
    lines = [f"gate r{j} register init=1" for j in range(n)] + ["gate c copier fanout=2"]
    lines += [f"wire r{j}.out0 -> r{j + 1}.in0" for j in range(n - 1)]
    lines += [f"wire r{n - 1}.out0 -> c.in0", "wire c.out0 -> r0.in0", "output c.out1"]
    path = tmp_path / "ring.netlist"
    path.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "equal", f"circuit:{path}", "expr:1")
    assert (code, out) == (1, "")
    assert _one_line_error(err) and "1025 registers" in err


def test_exact_answers_of_any_length(tmp_path, capsys):
    power = "1" + "0" * 4399  # 10^4399, 4400 digits
    code, out, err = run(capsys, "eval", "10^4400", "--n", "1")
    assert (code, err) == (0, "") and out.splitlines()[0] == power + "0"
    code, out, err = run(capsys, "eval", "1/(1-10*X)", "--n", "4400")
    assert (code, err) == (0, "") and out.splitlines()[0].split(", ")[-1] == power
    # a short prefix line, then a closed form too long for str(); the same
    # shape as (1+X)^20000, whose 60 MB of output would slow the suite
    code, out, err = run(capsys, "eval", "1+10^4400*X", "--n", "1")
    assert (code, err) == (0, "") and out == f"1\n1 + {power}0*X\n"
    path = tmp_path / "tenfold.netlist"
    path.write_text(TENFOLD)
    code, out, err = run(capsys, "circuit", "sim", "--file", str(path), "--n", "4400")
    assert (code, err) == (0, "") and out.strip().split(", ")[-1] == power


def test_main_restores_the_digit_limit(capsys):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        for expression in ("10^6000", "1/0", "("):
            run(capsys, "eval", expression, "--n", "1")
            assert sys.get_int_max_str_digits() == 5000, expression
    finally:
        sys.set_int_max_str_digits(before)


def test_path_method_has_no_recursion_limit(tmp_path, capsys):
    path = tmp_path / "loop.automaton"
    path.write_text("states 1\nout 1 1\nedge 1 1 1\n")
    code, out, err = run(capsys, "automaton", "eval", "--file", str(path), "--state", "1",
                         "--n", "1100", "--method", "path")
    assert (code, err) == (0, "")
    assert out == ", ".join(["1"] * 1100) + "\n"


# A leading "-" reads as an option: "{}" is the expression in each command.
LEADING_MINUS = (
    (("eval", "{}", "--n", "3"), ("eval", "--n", "3", "--", "-X")),
    (("derive", "{}", "--k", "1"), ("derive", "--k", "1", "--", "-X")),
    (("realize", "{}", "1"), ("realize", "--", "-X", "1")),
    (("circuit", "synth", "{}"), ("circuit", "synth", "--", "-X")),
    (("automaton", "synth", "{}"), ("automaton", "synth", "--", "-X")),
    (("rank", "--expr", "{}", "--m", "2"), ("rank", "--expr=-X", "--m", "2")),
    (("probe", "--expr", "{}", "--d", "1"), ("probe", "--expr=-X", "--d", "1")),
)


@pytest.mark.parametrize("template, attached", LEADING_MINUS)
def test_an_expression_with_a_leading_minus(capsys, template, attached):
    def spelled(text):
        return [text if word == "{}" else word for word in template]

    code, out, err = run(capsys, *spelled("-X"))
    assert (code, out) == (2, "")
    assert _one_line_error(err)
    expected = run(capsys, *spelled("0-X"))
    assert expected[0] == 0 and expected[1]
    assert run(capsys, *spelled("- X")) == expected
    assert run(capsys, *attached) == expected


# Bounded fuzz: every subcommand of the command table, with arguments drawn
# from small vocabularies, a count above sys.maxsize among them; huge powers,
# and large counts at or below sys.maxsize, are left out, as they hang.
FUZZ_FIELDS = ("q", "gf:2", "gf:7", "gf:101")
COUNTS = st.sampled_from([str(k) for k in range(13)] + ["-1", "x", "٣", HUGE])
FIELDS = st.sampled_from(FUZZ_FIELDS + ("gf:4",))
ATOMS = st.sampled_from(["X", "1", "-3", "1/2", "(1-X)"])


def expressions(depth=3):
    if depth == 0:
        return ATOMS
    inner = expressions(depth - 1)
    binary = st.builds(
        lambda a, op, b, bracket: f"({a}){op}({b})" if bracket else f"{a}{op}{b}",
        inner, st.sampled_from("+-*/"), inner, st.booleans(),
    )
    power = st.builds(lambda a, k: f"({a})^{k}", inner, st.integers(0, 9))
    return st.one_of(ATOMS, binary, power)


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """One system, circuit and automaton file per field, as the commands write
    them, and the netlist of the circuit."""
    folder = tmp_path_factory.mktemp("fuzz")
    for field in FUZZ_FIELDS:
        suffix = field.replace(":", "")
        for command in (("realize",), ("circuit", "synth"), ("automaton", "synth")):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main([*command, "(1+X)/(1-X-X^2)", "--field", field]) == 0
            (folder / f"{command[0]}-{suffix}").write_text(out.getvalue())
        circuit = parse_canonical((folder / f"circuit-{suffix}").read_text())
        (folder / f"netlist-{suffix}").write_text(format_netlist(circuit.to_netlist()))
    return sorted(str(path) for path in folder.iterdir()) + [str(folder / "missing")]


def values(name, keywords, files):
    """The strategy of one argument's values, chosen by its declaration."""
    if keywords.get("type") is cli._count:
        return COUNTS
    if "choices" in keywords:
        return st.sampled_from(keywords["choices"])
    files = st.sampled_from(files)
    representations = st.one_of(
        expressions().map("expr:{}".format),
        files.map("system:{}".format),
        files.map("circuit:{}".format),
        st.builds("automaton:{}@{}".format, files, COUNTS),
        st.sampled_from(["x", "zz:1"]),
    )
    scalars = st.lists(st.sampled_from(["0", "1", "-3", "1/2", "x"]), min_size=1, max_size=8)
    return {
        "--field": FIELDS,
        "--file": files,
        "--prefix": scalars.map(",".join),
        "first": representations,
        "second": representations,
    }.get(name, expressions())


@st.composite
def invocations(draw, files):
    """The argv of one subcommand drawn from the command table."""
    words, _, _, arguments = draw(st.sampled_from([row for row in cli.COMMANDS if row[2]]))
    argv = list(words)
    for argument in arguments:
        chosen = [argument]
        if isinstance(argument, list):  # a choice: one of its options, all of them or none
            chosen = draw(st.sampled_from([[option] for option in argument] + [argument, []]))
        for (name, *_), keywords in chosen:
            value = values(name, keywords, files)
            if keywords.get("nargs") == "+":
                argv += draw(st.lists(value, max_size=3))
            elif not name.startswith("-"):
                argv.append(draw(value))
            elif draw(st.integers(0, 9)):  # an option is left out now and then
                argv += [name, draw(value)]
    return argv


@settings(max_examples=300, deadline=timedelta(seconds=2))
@given(data=st.data())
def test_bounded_command_line_fuzz(fuzz_files, data):
    argv = data.draw(invocations(fuzz_files))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2), argv
    assert len(err.splitlines()) <= 1 and "Traceback" not in err, argv
    assert code != 0 or err == "", argv
