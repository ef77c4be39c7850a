"""The same-answers corpus: seeded inputs and their exact answers, as text.

    python3 tools/corpus.py                 # write tests/corpus/*.txt
    python3 -m pytest tests/test_corpus.py  # compare with the written files

Each line of a corpus file is one case, ``input → answer``.  A diff of two
versions shows which answer moved.  ``tests/test_corpus.py`` builds the
lines again over this checkout's ``src/`` and compares them with the
committed files.  The generator runs only when a change means to change an
answer; a regenerated file is a changed check.

- ``cli.txt``: the command line, run in process through ``cli.main``, on
  ``TEXTS`` seeded expression texts over each of ``FIELDS``.  Each text gets
  ``eval --n 12``, ``derive --k 0``, ``--k 1`` and ``--k 5`` (the text after
  ``--``, as it may start with a minus), ``guess`` on the
  prefix that ``eval`` printed, and ``equal`` against the next text.  The
  answer is the exit code, stdout and stderr, as JSON.  After them, from a
  draw of their own: ``realize`` of one to three texts; ``circuit sim --n
  8`` on the file that ``circuit synth`` writes for ``CIRCUITS`` texts and
  on that circuit's netlist file (each line records the file's
  text, its lines joined by `` | ``, and ``FILE`` for its path); and ``rank``
  and ``probe`` on ``--expr`` and on ``--prefix``, prefixes too short for the
  size among them.  Then, from a draw of their own, ``equal`` on the file
  representations (``representation_lines``), and last the one-line errors
  of the command line and of the ``FILE_ERRORS`` files.
- ``automata.txt``: ``automaton eval`` (``--method closed`` and ``--method
  path``) on every state, and ``equal automaton:<file>@<state>`` against an
  expression, on ``AUTOMATA`` seeded automata over each of ``FIELDS`` and on
  the ``automaton synth`` output of the first ``SYNTHESIZED`` texts.  The
  expressions are the state's closed form (for a synthesized automaton, the
  text it came from) and that plus X^j for a seeded j.  Each automaton is
  written to a temporary file; the line records the automaton's text, its
  lines joined by `` | ``, and ``FILE`` for its path.
- ``ops.txt``: the exact results of the arithmetic on seeded operands over
  each field, zero operands and dividends of lower degree among them:
  ``Polynomial`` +, -, *, divmod; ``RationalStream`` and
  ``RationalFunction`` +, -, *, /; ``StreamPrefix`` -; ``rref``, ``rank``,
  ``inverse`` and ``solve``; ``minimize`` (0-state systems included),
  ``fit_recurrence`` (all-zero prefixes included), and ``StreamPrefix`` *
  and ``inverse`` on finite operands and on ``from_rational`` ones (a zero
  head, a·a and a·(a·b).tail() among them); then, from draws of their own,
  ``Polynomial.gcd`` (``gcd_lines``) and ``RationalStream.from_sequence``
  (``sequence_lines``); ``kernel_basis`` (``kernel_lines``); and on
  systems with unobservable states, several outputs and fractional entries,
  ``observability_matrix``, ``states_equivalent`` and ``minimize``
  (``system_lines``); ``Polynomial.__pow__`` on each of its branches
  (``power_lines``); ``scale``, ``monic`` and ``shifted_down``
  (``unary_lines``); ``str`` of k(X) quotients whose denominator has a
  constant term other than 1 (``quotient_text_lines``); and
  ``Field.berlekamp_massey``'s (C, L) on all-zero prefixes, free terms and
  prefixes of closed forms, of 2L terms and shorter, where C is not unique
  (``berlekamp_massey_lines``).

Every random draw comes from one ``random.Random`` per file and field,
seeded with a string, so two runs write identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path
from typing import Iterator, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from streamcalc import (  # noqa: E402
    LinearSystem,
    Matrix,
    PointedLinearSystem,
    Polynomial,
    RationalFunction,
    RationalStream,
    SingularMatrix,
    StreamPrefix,
    WeightedAutomaton,
    change_basis,
    field_from_spec,
    fit_recurrence,
    format_automaton,
    format_netlist,
    format_system,
    inverse,
    kernel_basis,
    minimize,
    observability_matrix,
    parse_automaton,
    parse_canonical,
    parse_system,
    rank,
    rref,
    solve,
    states_equivalent,
)
from streamcalc.cli import main as cli_main  # noqa: E402
from streamcalc.errors import StreamCalcError  # noqa: E402

CORPUS = ROOT / "tests" / "corpus"
FIELDS = ("q", "gf:2", "gf:101", "gf:2305843009213693951")
TEXTS = 40
REALIZED = 6
CIRCUITS = 6
SYSTEMS = 6
PROBED = 8
AUTOMATA = 6
SYNTHESIZED = 4
ARROW = " → "


# --- the command line -------------------------------------------------------


def expression(rng: random.Random, depth: int) -> str:
    """A random expression text of at most ``depth`` nested operators."""
    if depth == 0 or rng.random() < 0.25:
        kind = rng.randrange(4)
        if kind == 0:
            return "X"
        if kind == 1:
            return f"{rng.randint(1, 9)}/{rng.randint(2, 9)}"
        return str(rng.randint(0, 9))
    kind = rng.randrange(7)
    if kind == 0:
        return f"-({expression(rng, depth - 1)})"
    if kind == 1:
        return f"{_operand(rng, depth)}^{rng.randint(0, 3)}"
    return f"{_operand(rng, depth)}{'+-*//'[kind - 2]}{_operand(rng, depth)}"


def _operand(rng: random.Random, depth: int) -> str:
    # an expression one level down, in parentheses unless X or an integer
    text = expression(rng, depth - 1)
    return text if text == "X" or text.isdigit() else f"({text})"


def texts() -> List[str]:
    rng = random.Random("corpus-texts")
    return [expression(rng, 3) for _ in range(TEXTS)]


def run(argv: Sequence[str]) -> list:
    """[exit code, stdout, stderr] of the command line on ``argv``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return [code, out.getvalue(), err.getvalue()]


def file_case(lines: List[str], path: str):
    """A recorder of command lines that read the file at ``path``: each
    argument's ``FILE`` becomes the path, and the line records the file's
    text (its lines joined by `` | ``, when given), the arguments and the
    answer, with ``FILE`` for the path."""

    def case(*argv: str, text: str = "") -> list:
        answer = run([a.replace("FILE", path) for a in argv])
        shown = text.strip().replace("\n", " | ") + " " if text else ""
        case_text = json.dumps(answer, ensure_ascii=False).replace(path, "FILE")
        lines.append(f"{shown}{json.dumps(list(argv), ensure_ascii=False)}{ARROW}{case_text}")
        return answer

    return case


def cli_lines() -> List[str]:
    lines = []

    def case(*argv: str) -> list:
        answer = run(argv)
        lines.append(json.dumps(list(argv), ensure_ascii=False) + ARROW + json.dumps(answer, ensure_ascii=False))
        return answer

    all_texts = texts()
    for spec in FIELDS:
        for i, text in enumerate(all_texts):
            # options first, then ``--``: a text may start with a minus
            code, out, _ = case("eval", "--n", "12", "--field", spec, "--", text)
            for k in ("0", "1", "5"):
                case("derive", "--k", k, "--field", spec, "--", text)
            if code == 0:
                case("guess", "--prefix=" + out.splitlines()[0].replace(" ", ""), "--field", spec)
            neighbour = all_texts[(i + 1) % len(all_texts)]
            case("equal", f"expr:{text}", f"expr:{neighbour}", "--field", spec)
    return lines + command_lines(all_texts) + representation_lines(all_texts)


def command_lines(all_texts: List[str]) -> List[str]:
    """``realize``, ``circuit sim``, ``rank`` and ``probe``, from one draw per
    field of their own, so that the lines before them keep theirs."""
    lines = []
    with tempfile.TemporaryDirectory() as scratch:
        path = str(Path(scratch) / "circuit.txt")
        case = file_case(lines, path)
        for spec in FIELDS:
            rng = random.Random(f"corpus-commands-{spec}")
            for _ in range(REALIZED):
                case("realize", "--field", spec, "--", *rng.sample(all_texts, rng.randint(1, 3)))
            for text in rng.sample(all_texts, CIRCUITS):
                code, out, _ = run(["circuit", "synth", "--field", spec, "--", text])
                if code != 0:
                    continue
                for circuit in (out, format_netlist(parse_canonical(out).to_netlist())):
                    Path(path).write_text(circuit, encoding="utf-8")
                    case("circuit", "sim", "--file", "FILE", "--n", "8", text=circuit)
            field = field_from_spec(spec)
            for _ in range(PROBED):
                text = rng.choice(all_texts)
                size = str(rng.randint(0, 4))
                # a text's first terms or random scalars, 1 to 8 of them
                code, out, _ = run(["eval", "--n", str(rng.randint(1, 8)), "--field", spec, "--", text])
                if code == 0 and rng.random() < 0.5:
                    terms = out.splitlines()[0].replace(" ", "")
                else:
                    terms = ",".join(field.format(scalar(rng, field)) for _ in range(rng.randint(1, 8)))
                for command, option in (("rank", "--m"), ("probe", "--d")):
                    case(command, "--expr=" + text, option, size, "--field", spec)
                    case(command, "--prefix=" + terms, option, size, "--field", spec)
    return lines


def representation_lines(all_texts: List[str]) -> List[str]:
    """``equal`` on the file representations, from one draw per field of
    their own: ``system:FILE`` on the file ``realize`` writes for a text and
    ``system:FILE@v`` on it at a seeded state; ``circuit:FILE`` on the
    canonical file of ``circuit synth`` and on its netlist file.  Each is
    compared with its text and with that text plus X^j.  Then, once, the
    one-line errors of the command line and of the file readers."""
    lines = []
    with tempfile.TemporaryDirectory() as scratch:
        path = str(Path(scratch) / "representation.txt")
        case = file_case(lines, path)
        for spec in FIELDS:
            field = field_from_spec(spec)
            rng = random.Random(f"corpus-representations-{spec}")
            for text in rng.sample(all_texts, SYSTEMS):
                code, out, _ = run(["realize", "--field", spec, "--", text])
                if code != 0:
                    continue
                Path(path).write_text(out, encoding="utf-8")
                state = ",".join(field.format(scalar(rng, field)) for _ in range(parse_system(out).dim))
                for first in ("system:FILE", f"system:FILE@{state}"):
                    for other in (text, f"{text}+X^{rng.randint(0, 9)}"):
                        case("equal", first, f"expr:{other}", "--field", spec, text=out)
            for text in rng.sample(all_texts, CIRCUITS):
                code, out, _ = run(["circuit", "synth", "--field", spec, "--", text])
                if code != 0:
                    continue
                for circuit in (out, format_netlist(parse_canonical(out).to_netlist())):
                    Path(path).write_text(circuit, encoding="utf-8")
                    for other in (text, f"{text}+X^{rng.randint(0, 9)}"):
                        case("equal", "circuit:FILE", f"expr:{other}", "--field", spec, text=circuit)
        case("eval", "--n", "4", "--", "X)")
        case("equal", "foo", "expr:X")
        case("equal", "bogus:x", "expr:X")
        for text, argv in FILE_ERRORS:
            Path(path).write_text(text, encoding="utf-8")
            case(*argv, text=text)
    return lines


# Files that each command reads to a one-line error: an automaton read
# without @<state> and at a state past its end, system files without v0,
# with a wrong H and without F, and netlist files with a duplicate gate id,
# a wire without ->, an input driven twice and a wired designated output.
_AUTOMATON = "field q\nstates 2\nout 1 1\nout 2 0\nedge 1 2 1\n"
_NETLIST = "field q\ngate r1 register init=1\ngate m1 multiplier r=1/2\nwire r1.out0 -> m1.in0\n"
FILE_ERRORS = (
    (_AUTOMATON, ("equal", "automaton:FILE", "expr:X")),
    (_AUTOMATON, ("automaton", "eval", "--file", "FILE", "--state", "3", "--n", "4")),
    ("field q\nn 1\nm 1\nF 1\nH 1\n", ("equal", "system:FILE", "expr:X")),
    ("field q\nn 2\nm 1\nF 1,0;0,1\nH 1,2,3\nv0 1,0\n", ("equal", "system:FILE", "expr:X")),
    ("field q\nn 2\nm 1\nH 1,2\nv0 1,0\n", ("equal", "system:FILE", "expr:X")),
    (_NETLIST + "gate m1 multiplier r=2\nwire m1.out0 -> r1.in0\noutput m1.out0\n", ("circuit", "sim", "--file", "FILE", "--n", "4")),
    (_NETLIST + "wire m1.out0 r1.in0\noutput m1.out0\n", ("circuit", "sim", "--file", "FILE", "--n", "4")),
    (_NETLIST + "wire m1.out0 -> r1.in0\nwire r1.out0 -> r1.in0\noutput m1.out0\n", ("circuit", "sim", "--file", "FILE", "--n", "4")),
    (_NETLIST + "wire m1.out0 -> r1.in0\noutput m1.out0\n", ("equal", "circuit:FILE", "expr:X")),
)


# --- the automata -------------------------------------------------------------


def automaton_text(rng: random.Random, field) -> str:
    """A seeded automaton of 1 to 4 states, about half its edges absent."""
    size = rng.randint(1, 4)
    outputs = tuple(scalar(rng, field) for _ in range(size))
    weights = [[scalar(rng, field) if rng.random() < 0.5 else field.zero() for _ in range(size)] for _ in range(size)]
    return format_automaton(WeightedAutomaton(outputs, Matrix(field, weights, cols=size)))


def automaton_lines() -> List[str]:
    lines = []
    all_texts = texts()
    with tempfile.TemporaryDirectory() as scratch:
        path = str(Path(scratch) / "automaton.txt")

        def case(text: str, *argv: str) -> None:
            answer = json.dumps(run([a.replace("FILE", path) for a in argv]), ensure_ascii=False)
            shown = text.strip().replace("\n", " | ")
            lines.append(f"{shown} {json.dumps(list(argv), ensure_ascii=False)}{ARROW}{answer.replace(path, 'FILE')}")

        for spec in FIELDS:
            field = field_from_spec(spec)
            rng = random.Random(f"corpus-automata-{spec}")
            automata = [(automaton_text(rng, field), None) for _ in range(AUTOMATA)]
            for text in all_texts[:SYNTHESIZED]:
                code, out, _ = run(["automaton", "synth", "--field", spec, "--", text])
                if code == 0:
                    automata.append((out, text))
            for text, source in automata:
                Path(path).write_text(text, encoding="utf-8")
                streams = parse_automaton(text).behaviour()
                for state in range(1, len(streams) + 1):
                    for method in ("closed", "path"):
                        case(text, "automaton", "eval", "--file", "FILE", "--state", str(state), "--n", "8", "--method", method)
                    closed = str(streams[state - 1])
                    for other in (source or closed, f"{closed}+X^{rng.randint(0, 9)}"):
                        case(text, "equal", f"automaton:FILE@{state}", f"expr:{other}", "--field", spec)
    return lines


# --- the operations -----------------------------------------------------------


def show(value, field) -> str:
    """Exact text of a value over ``field``: each scalar by the field's
    ``format``, a quotient's stored numerator and denominator with its type,
    a pointed system as its file text on one line."""
    if isinstance(value, Polynomial):
        return show(list(value.coeffs), field)
    if isinstance(value, (RationalStream, RationalFunction)):
        return f"{type(value).__name__}({show(value.num, field)}, {show(value.den, field)})"
    if isinstance(value, list):
        return "[" + ", ".join(show(v, field) for v in value) + "]"
    if isinstance(value, tuple):
        return "(" + ", ".join(show(v, field) for v in value) + ")"
    if isinstance(value, Matrix):
        return "[" + "; ".join(", ".join(field.format(e) for e in row) for row in value.entries) + "]"
    if isinstance(value, PointedLinearSystem):
        return format_system(value).strip().replace("\n", " | ")
    if value is None or isinstance(value, str):
        return str(value)
    return field.format(value)


def _pivots_as_text(reduced):
    matrix, pivots = reduced
    return matrix, f"pivots {list(pivots)}"


def answer(compute, field) -> str:
    try:
        return show(compute(), field)
    except (StreamCalcError, ZeroDivisionError) as exc:
        return f"error {type(exc).__name__}: {exc}"


def scalar(rng: random.Random, field):
    if field.characteristic == 0 and rng.random() < 0.3:
        return field.parse(f"{rng.randint(-9, 9)}/{rng.randint(2, 9)}")
    return field.coerce(rng.randint(-9, 9))


def polynomial(rng: random.Random, field, degree: int) -> Polynomial:
    """A polynomial of at most ``degree`` (zero for -1), its top term nonzero
    when the field allows."""
    coeffs = [scalar(rng, field) for _ in range(degree + 1)]
    if coeffs and not coeffs[-1]:
        coeffs[-1] = field.one()
    return Polynomial(field, coeffs)


def polynomial_pairs(rng: random.Random, field, count: int):
    """Pairs with a zero operand on either side, constants, and every order of
    degrees, the lower-degree dividend among them."""
    zero = Polynomial.zero(field)
    for _ in range(count):
        a = polynomial(rng, field, rng.randint(-1, 4))
        b = polynomial(rng, field, rng.randint(-1, 4))
        yield a, b
    yield zero, zero
    yield zero, polynomial(rng, field, 2)
    yield polynomial(rng, field, 3), zero
    yield polynomial(rng, field, 0), polynomial(rng, field, 3)
    yield polynomial(rng, field, 1), polynomial(rng, field, 4)


def ratstream(rng: random.Random, field, zero_chance: float) -> RationalStream:
    if rng.random() < zero_chance:
        return RationalStream.zero(field)
    num = polynomial(rng, field, rng.randint(0, 3))
    den = Polynomial(field, [field.one()] + [scalar(rng, field) for _ in range(rng.randint(0, 3))])
    return RationalStream(num, den)


def ratfunc(rng: random.Random, field, zero_chance: float) -> RationalFunction:
    if rng.random() < zero_chance:
        return RationalFunction.zero(field)
    den = polynomial(rng, field, rng.randint(0, 3))
    return RationalFunction(polynomial(rng, field, rng.randint(0, 3)), den or Polynomial.x(field))


def matrix(rng: random.Random, field, rows: int, cols: int) -> Matrix:
    return Matrix(field, [[scalar(rng, field) for _ in range(cols)] for _ in range(rows)], cols=cols)


def system(rng: random.Random, field, dim: int) -> PointedLinearSystem:
    dynamics = Matrix(field, [[field.coerce(rng.randint(-2, 2)) for _ in range(dim)] for _ in range(dim)], cols=dim)
    output = Matrix(field, [[field.coerce(rng.randint(-2, 2)) for _ in range(dim)]], cols=dim)
    initial = tuple(field.coerce(rng.randint(-2, 2)) for _ in range(dim))
    return PointedLinearSystem(LinearSystem(dynamics, output), initial)


def prefix(rng: random.Random, field) -> list:
    """An all-zero prefix, or the terms of a random closed form, cut short or not."""
    length = rng.randint(0, 10)
    if rng.random() < 0.2:
        return [field.zero()] * length
    return ratstream(rng, field, 0).expand(length)


def ops_lines() -> Iterator[str]:
    for spec in FIELDS:
        field = field_from_spec(spec)
        rng = random.Random(f"corpus-ops-{spec}")
        for a, b in polynomial_pairs(rng, field, 20):
            pair = f"{spec} poly {show(a, field)} {show(b, field)}"
            yield f"{pair} +{ARROW}{answer(lambda: a + b, field)}"
            yield f"{pair} -{ARROW}{answer(lambda: a - b, field)}"
            yield f"{pair} *{ARROW}{answer(lambda: a * b, field)}"
            yield f"{pair} divmod{ARROW}{answer(lambda: divmod(a, b), field)}"
        for make in (ratstream, ratfunc):
            for _ in range(20):
                a, b = make(rng, field, 0.25), make(rng, field, 0.25)
                pair = f"{spec} {make.__name__} {show(a, field)} {show(b, field)}"
                yield f"{pair} +{ARROW}{answer(lambda: a + b, field)}"
                yield f"{pair} -{ARROW}{answer(lambda: a - b, field)}"
                yield f"{pair} *{ARROW}{answer(lambda: a * b, field)}"
                yield f"{pair} /{ARROW}{answer(lambda: a / b, field)}"
        for _ in range(8):
            a, b = [scalar(rng, field) for _ in range(rng.randint(0, 4))], [scalar(rng, field) for _ in range(rng.randint(0, 4))]
            difference = StreamPrefix.from_coefficients(field, a) - StreamPrefix.from_coefficients(field, b)
            yield f"{spec} prefix {show(a, field)} {show(b, field)} - take 6{ARROW}{show(difference.take(6), field)}"
        for rows, cols in ((0, 0), (1, 1), (2, 2), (3, 3), (2, 3), (3, 2), (4, 4), (3, 5)):
            m = matrix(rng, field, rows, cols)
            rhs = [scalar(rng, field) for _ in range(rows)]
            yield f"{spec} rref {show(m, field)}{ARROW}{answer(lambda: _pivots_as_text(rref(m)), field)}"
            yield f"{spec} rank {show(m, field)}{ARROW}{answer(lambda: str(rank(m)), field)}"
            yield f"{spec} solve {show(m, field)} {show(rhs, field)}{ARROW}{answer(lambda: solve(m, rhs), field)}"
            if rows == cols:
                yield f"{spec} inverse {show(m, field)}{ARROW}{answer(lambda: inverse(m), field)}"
        for dim in (0, 0, 1, 2, 3, 3, 4):
            pointed = system(rng, field, dim)
            yield f"{spec} minimize {show(pointed, field)}{ARROW}{answer(lambda: minimize(pointed), field)}"
        for _ in range(12):
            terms = prefix(rng, field)
            yield f"{spec} fit_recurrence {show(terms, field)} 6{ARROW}{answer(lambda: fit_recurrence(terms, 6), field)}"
        yield from prefix_product_lines(spec, field)
        yield from gcd_lines(spec, field)
        yield from sequence_lines(spec, field)
        yield from kernel_lines(spec, field)
        yield from system_lines(spec, field)
        yield from power_lines(spec, field)
        yield from unary_lines(spec, field)
        yield from quotient_text_lines(spec, field)
        yield from berlekamp_massey_lines(spec, field)


def unit_at_zero(rng: random.Random, field, degree: int) -> Polynomial:
    """A polynomial of ``degree`` whose constant term is nonzero."""
    f = polynomial(rng, field, degree)
    while not f.coefficient(0):
        f = polynomial(rng, field, degree)
    return f


def power_lines(spec: str, field) -> Iterator[str]:
    """``Polynomial.__pow__`` on each of its branches, from a draw of its own:
    0^k and f^0; X^v g with g constant and with g not; Miller's recurrence
    (k deg f < char, every k over Q); and over GF(2) and GF(101) the
    Frobenius split (k >= p) and square-and-multiply (k deg f >= p > k)."""
    rng = random.Random(f"corpus-power-{spec}")
    p, x = field.characteristic, Polynomial.x(field)
    cases = [(Polynomial.zero(field), 0), (Polynomial.zero(field), 3), (polynomial(rng, field, 2), 0)]
    for _ in range(3):
        v, k = rng.randint(1, 3), rng.randint(1, 6)
        cases.append((x ** v * unit_at_zero(rng, field, 0), k))
        cases.append((x ** v * unit_at_zero(rng, field, rng.randint(1, 2)), k))
    for _ in range(4):
        f = unit_at_zero(rng, field, rng.randint(0, 3))
        k = rng.randint(1, 6)
        if p and k * f.degree >= p:
            k = (p - 1) // max(f.degree, 1)
        cases.append((f, k))
    if p in (2, 101):
        for _ in range(3):
            cases.append((unit_at_zero(rng, field, rng.randint(1, 2)), p + rng.randint(0, min(p, 50))))
        for _ in range(2):
            degree = rng.randint(2, 3)
            cases.append((unit_at_zero(rng, field, degree), rng.randint(-(-p // degree), p - 1)))
    for f, k in cases:
        yield f"{spec} pow {show(f, field)} {k}{ARROW}{answer(lambda: f ** k, field)}"


def unary_lines(spec: str, field) -> Iterator[str]:
    """``Polynomial.scale`` (by zero among the scalars), ``monic`` (of zero
    among the polynomials) and ``shifted_down`` of zero and of X g, from a
    draw of its own."""
    rng = random.Random(f"corpus-unary-{spec}")
    for degree in (-1, 0, 1, 2, 3, 4):
        f, c = polynomial(rng, field, degree), scalar(rng, field)
        yield f"{spec} scale {show(f, field)} {show(c, field)}{ARROW}{answer(lambda: f.scale(c), field)}"
        yield f"{spec} monic {show(f, field)}{ARROW}{answer(lambda: f.monic(), field)}"
        shifted = Polynomial.x(field) * f
        yield f"{spec} shifted_down {show(shifted, field)}{ARROW}{answer(lambda: shifted.shifted_down(), field)}"


def quotient_text_lines(spec: str, field) -> Iterator[str]:
    """``str`` of k(X) quotients whose monic denominator has a constant term
    other than 0 and 1, printed over the denominator with constant term 1,
    from a draw of its own."""
    rng = random.Random(f"corpus-quotient-text-{spec}")
    for _ in range(8):
        den = unit_at_zero(rng, field, rng.randint(1, 3))
        q = RationalFunction(polynomial(rng, field, rng.randint(-1, 3)), den)
        yield f"{spec} str {show(q, field)}{ARROW}{answer(lambda: str(q), field)}"


def berlekamp_massey_lines(spec: str, field) -> Iterator[str]:
    """``Field.berlekamp_massey``, from a draw of its own: all-zero prefixes
    (a run of zeros ahead of the first nonzero term too), free terms, and
    the prefixes of closed forms p/q of linear complexity L, 2L terms long
    (C is q) and shorter than 2L (C is not unique).  L is printed as a
    number, not as a field element."""
    rng = random.Random(f"corpus-berlekamp-massey-{spec}")
    prefixes = [[field.zero()] * length for length in (0, 1, 4)]
    prefixes += [[field.zero()] * rng.randint(1, 4) + [scalar(rng, field) for _ in range(rng.randint(1, 5))] for _ in range(3)]
    prefixes += [[scalar(rng, field) for _ in range(rng.randint(1, 8))] for _ in range(3)]
    for _ in range(6):
        s = ratstream(rng, field, 0)
        length = max(s.den.degree, s.num.degree + 1) if s else 0
        prefixes.append(s.expand(2 * length))
        prefixes.append(s.expand(rng.randint(1, max(2 * length - 1, 1))))

    def fit(terms):
        connection, length = field.berlekamp_massey(terms)
        return connection, str(length)

    for terms in prefixes:
        yield f"{spec} berlekamp_massey {show(terms, field)}{ARROW}{answer(lambda: fit(terms), field)}"


def prefix_product_lines(spec: str, field) -> Iterator[str]:
    """``StreamPrefix`` products and inverses, from a random draw of their own
    so that the lines before them keep theirs: finite operands (empty, short,
    a zero head), then closed forms' prefixes with a·b, a·a, the inverse and
    a·(a·b).tail()."""
    rng = random.Random(f"corpus-prefix-{spec}")
    for _ in range(10):
        a, b = [scalar(rng, field) for _ in range(rng.randint(0, 4))], [scalar(rng, field) for _ in range(rng.randint(0, 4))]
        pa, pb = StreamPrefix.from_coefficients(field, a), StreamPrefix.from_coefficients(field, b)
        pair = f"{spec} prefix {show(a, field)} {show(b, field)}"
        yield f"{pair} * take 8{ARROW}{answer(lambda: (pa * pb).take(8), field)}"
        yield f"{pair} inverse take 8{ARROW}{answer(lambda: pa.inverse().take(8), field)}"
    for _ in range(10):
        s, t = ratstream(rng, field, 0.1), ratstream(rng, field, 0.1)
        pa, pb = StreamPrefix.from_rational(s), StreamPrefix.from_rational(t)
        pair = f"{spec} prefix from_rational {show(s, field)} {show(t, field)}"
        yield f"{pair} * take 12{ARROW}{answer(lambda: (pa * pb).take(12), field)}"
        yield f"{pair} a*a take 12{ARROW}{answer(lambda: (pa * pa).take(12), field)}"
        yield f"{pair} inverse take 12{ARROW}{answer(lambda: pa.inverse().take(12), field)}"
        yield f"{pair} a*(a*b).tail() take 12{ARROW}{answer(lambda: (pa * (pa * pb).tail()).take(12), field)}"


def gcd_lines(spec: str, field) -> Iterator[str]:
    """``Polynomial.gcd``, from a draw of its own: zero operands, constants,
    unequal degrees and a planted common factor.  Over Q also two pairs whose
    leading coefficient 2^61 - 1 divides, where the coprimality certificate
    mod that prime proves nothing, one coprime and one with a common factor."""
    rng = random.Random(f"corpus-gcd-{spec}")
    pairs = list(polynomial_pairs(rng, field, 10))
    for _ in range(8):
        common = polynomial(rng, field, rng.randint(1, 3))
        pairs.append(tuple(common * polynomial(rng, field, rng.randint(0, 3)) for _ in range(2)))
    if not field.characteristic:
        unlucky = Polynomial(field, [field.one(), scalar(rng, field), field.coerce(2**61 - 1)])
        common = polynomial(rng, field, 2)
        pairs += [(unlucky, polynomial(rng, field, 2)), (unlucky * common, polynomial(rng, field, 1) * common)]
    for a, b in pairs:
        yield f"{spec} gcd {show(a, field)} {show(b, field)}{ARROW}{answer(lambda: a.gcd(b), field)}"


def sequence_lines(spec: str, field) -> Iterator[str]:
    """``RationalStream.from_sequence``, from a draw of its own: all-zero
    prefixes, then the terms of closed forms, cut short or not."""
    rng = random.Random(f"corpus-sequence-{spec}")
    prefixes = [[field.zero()] * length for length in (0, 1, 5)]
    prefixes += [ratstream(rng, field, 0).expand(rng.randint(1, 10)) for _ in range(12)]
    for terms in prefixes:
        yield f"{spec} from_sequence {show(terms, field)}{ARROW}{answer(lambda: RationalStream.from_sequence(field, terms), field)}"


def kernel_lines(spec: str, field) -> Iterator[str]:
    """``kernel_basis``, from a draw of its own: no rows, full rank, more
    columns than rows, and products of a rows x k and a k x cols matrix,
    whose rank is at most k."""
    rng = random.Random(f"corpus-kernel-{spec}")
    matrices = [matrix(rng, field, rows, cols) for rows, cols in ((0, 3), (1, 1), (2, 2), (1, 3), (2, 4), (3, 3), (3, 5))]
    for rows, k, cols in ((3, 1, 3), (3, 2, 4), (4, 2, 4), (2, 1, 5), (4, 3, 4)):
        matrices.append(matrix(rng, field, rows, k) * matrix(rng, field, k, cols))
    for m in matrices:
        yield f"{spec} kernel_basis {show(m, field)}{ARROW}{answer(lambda: kernel_basis(m), field)}"


def unobservable_system(rng: random.Random, field):
    """(pointed, T, r): a pointed system of r + k states of which k are
    unobservable, with one to three outputs: F = [[A, 0], [B, C]] and H =
    [H1, 0], conjugated by a seeded invertible T (drawn again while it is
    singular), so that T (0, z) is an unobservable state for every z."""
    r, k, m = rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 3)
    n, zero = r + k, field.zero()
    dynamics = [[scalar(rng, field) if i >= r or j < r else zero for j in range(n)] for i in range(n)]
    output = [[scalar(rng, field) if j < r else zero for j in range(n)] for _ in range(m)]
    initial = tuple(scalar(rng, field) for _ in range(n))
    pointed = PointedLinearSystem(LinearSystem(Matrix(field, dynamics, cols=n), Matrix(field, output, cols=n)), initial)
    while True:
        transform = matrix(rng, field, n, n)
        try:
            return change_basis(pointed, transform), transform, r
        except SingularMatrix:
            continue


def system_lines(spec: str, field) -> Iterator[str]:
    """``observability_matrix``, ``states_equivalent`` and ``minimize`` on
    ``unobservable_system``s, each from a draw of its own.  Of each two
    ``states_equivalent`` lines the second state is the first plus T (0, z),
    an unobservable state, and then plus a random state, so that both
    answers occur."""
    rng = random.Random(f"corpus-observability-{spec}")
    for _ in range(6):
        system = unobservable_system(rng, field)[0].system
        case = f"{spec} observability_matrix {show(system.dynamics, field)} {show(system.output, field)}"
        yield f"{case}{ARROW}{answer(lambda: observability_matrix(system), field)}"
    rng = random.Random(f"corpus-equivalent-{spec}")
    for _ in range(6):
        pointed, transform, r = unobservable_system(rng, field)
        system, first, n = pointed.system, pointed.initial, pointed.dim
        hidden = transform.apply([field.zero()] * r + [scalar(rng, field) for _ in range(n - r)])
        for offset in (hidden, [scalar(rng, field) for _ in range(n)]):
            second = tuple(a + b for a, b in zip(first, offset))
            case = f"{spec} states_equivalent {show(pointed, field)} {show(second, field)}"
            yield f"{case}{ARROW}{answer(lambda: str(states_equivalent(system, first, second)), field)}"
    rng = random.Random(f"corpus-minimize-{spec}")
    for _ in range(8):
        pointed = unobservable_system(rng, field)[0]
        yield f"{spec} minimize {show(pointed, field)}{ARROW}{answer(lambda: minimize(pointed), field)}"


# --- the files ----------------------------------------------------------------

FILES = {"cli.txt": cli_lines, "automata.txt": automaton_lines, "ops.txt": ops_lines}


def main(argv: Optional[Sequence[str]] = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    CORPUS.mkdir(parents=True, exist_ok=True)
    for name, lines in FILES.items():
        text = "".join(line + "\n" for line in lines())
        path = CORPUS / name
        path.write_text(text, encoding="utf-8")
        print(f"{path.relative_to(ROOT)}: {text.count(chr(10))} lines, {len(text.encode())} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
