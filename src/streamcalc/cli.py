"""Command-line interface.

Subcommands: eval, derive, realize, circuit synth/sim, automaton synth/eval,
equal, rank, probe, guess, each one row of ``COMMANDS``, which
``build_parser`` reads.  An action prints its answer and returns nothing;
``main`` maps its exceptions to exit codes: 0 success, 1 domain error (for
example an inversion of a stream with initial value 0, or a prefix too short
for ``guess``) or an answer too large for memory, 2 syntax or format error.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path
from typing import List, Optional, Sequence

from . import analysis, expr
from .automaton import WeightedAutomaton, format_automaton, parse_automaton
from .circuit import (
    CanonicalCircuit,
    Netlist,
    format_canonical,
    parse_circuit_file,
)
from .errors import (
    FormatError,
    IllFormedCircuit,
    InsufficientPrefix,
    ParseError,
    StreamCalcError,
    check_count,
)
from .fields import Field, field_from_spec, is_ascii_digits, parse_integer
from .linear_system import (
    PointedLinearSystem,
    at_least_one_state,
    format_system,
    parse_state,
    parse_system,
    realize,
)
from .ratstream import RationalStream


class _Parser(argparse.ArgumentParser):
    """Usage errors as one line on stderr, exit code 2."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _count(text: str) -> int:
    """A count option: ASCII digits (a sign only to be told it is negative)."""
    shown = text if len(text) <= 20 else f"{text[:20]}..."
    if not is_ascii_digits(text.removeprefix("-")):
        raise argparse.ArgumentTypeError(f"not a count of ASCII digits: {shown!r}")
    try:
        value = parse_integer(text)
    except FormatError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if text.startswith("-"):  # -0 too: a count takes no sign
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {shown}")
    return value


def _read(path: str, parse):
    """Parse the file at ``path``; a format error names the file and line,
    an ill-formed netlist the file."""
    try:
        return parse(Path(path).read_text())
    except (FormatError, IllFormedCircuit) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _stream(args) -> RationalStream:
    """The command's one expression, over its ``--field``."""
    return expr.evaluate_text(args.expr, field_from_spec(args.field))


def _prefix_line(field: Field, values: Sequence) -> str:
    return ", ".join(field.format(v) for v in values)


def _eval(args):
    stream = _stream(args)
    print(_prefix_line(stream.field, stream.expand(args.n)))
    print(stream)


def _derive(args):
    print(_stream(args).iterated_derivative(args.k))


def _realize(args):
    field = field_from_spec(args.field)
    streams = [expr.evaluate_text(text, field) for text in args.exprs]
    print(format_system(realize(streams)), end="")


def _synth(convert, write, args):
    """Write the representation ``convert`` builds from the stream's realization."""
    print(write(convert(at_least_one_state(realize([_stream(args)])))), end="")


def _circuit_sim(args):
    loaded = _read(args.file, parse_circuit_file)
    netlist = loaded if isinstance(loaded, Netlist) else loaded.to_netlist()
    print(_prefix_line(netlist.field, netlist.simulate(args.n)))


def _automaton_eval(args):
    automaton = _read(args.file, parse_automaton)
    state = _automaton_state(automaton, args.state)
    if args.method == "path":
        check_count(args.n, "number of coefficients")
        values = [automaton.path_sum(state, k) for k in range(args.n)]
    else:
        values = automaton.behaviour()[state].expand(args.n)
    print(_prefix_line(automaton.field, values))


def _automaton_state(automaton: WeightedAutomaton, index: int) -> int:
    if not 1 <= index <= automaton.size:
        raise FormatError(
            f"state {index} out of range 1..{automaton.size} (states are 1-based)"
        )
    return index - 1


def _load_representation(spec: str, field: Field):
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise FormatError(
            f"bad representation {spec!r}; use expr:/system:/circuit:/automaton:"
        )
    if kind == "expr":
        return expr.evaluate_text(rest, field)
    if kind == "system":
        path, at, vector_text = rest.partition("@")
        loaded = _read(path, parse_system)
        if at:
            if isinstance(loaded, PointedLinearSystem):
                loaded = loaded.system
            return PointedLinearSystem(loaded, parse_state(loaded.field, vector_text, loaded.dim))
        if not isinstance(loaded, PointedLinearSystem):
            raise FormatError(f"system file {path} has no v0; pass system:{path}@v")
        return loaded
    if kind == "circuit":
        return _read(rest, parse_circuit_file)
    if kind == "automaton":
        path, at, state_text = rest.partition("@")
        if not at or not is_ascii_digits(state_text):
            raise FormatError("automaton representation needs @<state>, 1-based")
        automaton = _read(path, parse_automaton)
        return automaton.behaviour()[_automaton_state(automaton, parse_integer(state_text))]
    raise FormatError(f"unknown representation kind {kind!r}")


def _equal(args):
    field = field_from_spec(args.field)
    first = _load_representation(args.first, field)
    second = _load_representation(args.second, field)
    index = analysis.first_difference(first, second)
    if index is None:
        print("equal")
    else:
        print("not-equal")
        print(f"differs-at {index}")


def _prefix(args, needed: int) -> List:
    """The ``--prefix`` scalars, or the first ``needed`` terms of ``--expr``."""
    if args.prefix is None:
        return _stream(args).expand(needed)
    field = field_from_spec(args.field)
    return [field.parse(chunk) for chunk in args.prefix.split(",")]


def _rank(args):
    prefix = _prefix(args, 2 * args.m - 1 if args.m else 0)
    observed = analysis.hankel_rank(prefix, args.m)
    print(analysis.RankReport(len(prefix), args.m, observed).render(), end="")


def _probe(args):
    prefix = _prefix(args, 2 * args.d + 1)
    print(analysis.nonrationality_probe(prefix, args.d).render(), end="")


def _guess(args):
    prefix = _prefix(args, 0)
    stream = RationalStream.from_sequence(field_from_spec(args.field), prefix)
    # p/q is reduced and agrees with the prefix, so its linear complexity is
    # the prefix's, L; fewer than 2L terms do not determine the stream
    length = max(stream.den.degree, stream.num.degree + 1)
    if len(prefix) < 2 * length:
        raise InsufficientPrefix(
            f"{len(prefix)} coefficients have linear complexity L = {length}; "
            f"a closed form needs at least 2L = {2 * length}"
        )
    print(stream)


def _arg(*names, **keywords):
    """One ``add_argument`` call: its names and its keywords."""
    return names, keywords


def _counted(name: str, help: Optional[str] = None):
    return _arg(name, type=_count, required=True, help=help)


_EXPR = _arg("expr")
_FIELD = _arg("--field", default="q", help="scalar field: q (rationals, default) or gf:<prime>")
_FILE = _arg("--file", required=True)
_PREFIX_HELP = "comma-separated scalars; attach a negative first one: --prefix=-1,2,0"
# a list is a required choice of exactly one of its arguments
_PREFIX_OR_EXPR = [_arg("--prefix", help=_PREFIX_HELP), _arg("--expr")]

# Every subcommand, in help order: its words, help, action and arguments; a
# row without an action is a group of the rows under its words.
COMMANDS = (
    (("eval",), "expand an expression and show its closed form", _eval,
     (_EXPR, _counted("--n", "number of coefficients"), _FIELD)),
    (("derive",), "k-th stream derivative in closed form", _derive,
     (_EXPR, _counted("--k", "derivative order"), _FIELD)),
    (("realize",), "minimal linear system for the streams", _realize,
     (_arg("exprs", nargs="+", metavar="expr"), _FIELD)),
    (("circuit",), "stream circuit commands", None, ()),
    (("circuit", "synth"), "synthesize a canonical circuit",
     partial(_synth, CanonicalCircuit.from_linear_system, format_canonical), (_EXPR, _FIELD)),
    (("circuit", "sim"), "simulate a circuit file", _circuit_sim,
     (_FILE, _counted("--n", "number of ticks"))),
    (("automaton",), "weighted automaton commands", None, ()),
    (("automaton", "synth"), "synthesize a weighted automaton",
     partial(_synth, WeightedAutomaton.from_linear_system, format_automaton), (_EXPR, _FIELD)),
    (("automaton", "eval"), "expand the stream of a state", _automaton_eval,
     (_FILE, _counted("--state", "1-based state index"), _counted("--n"),
      _arg("--method", choices=("path", "closed"), default="closed"))),
    (("equal",), "decide equality of two representations", _equal,
     (_arg("first", metavar="reprA"), _arg("second", metavar="reprB"), _FIELD)),
    (("rank",), "Hankel rank of a coefficient prefix", _rank,
     (_PREFIX_OR_EXPR, _counted("--m", "Hankel matrix size"), _FIELD)),
    (("probe",), "rank-based non-rationality probe", _probe,
     (_PREFIX_OR_EXPR, _counted("--d", "claimed degree bound"), _FIELD)),
    (("guess",), "closed form of a coefficient prefix", _guess,
     (_arg("--prefix", required=True, help=_PREFIX_HELP), _FIELD)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="streamcalc",
        description="Exact stream calculus: rational streams and their finite representations.",
    )
    groups = {(): parser.add_subparsers(dest="command", required=True)}
    for words, summary, action, arguments in COMMANDS:
        command = groups[words[:-1]].add_parser(words[-1], help=summary)
        if action is None:
            groups[words] = command.add_subparsers(dest="subcommand", required=True)
            continue
        for argument in arguments:
            if isinstance(argument, list):
                choice = command.add_mutually_exclusive_group(required=True)
                for names, keywords in argument:
                    choice.add_argument(*names, **keywords)
            else:
                names, keywords = argument
                command.add_argument(*names, **keywords)
        command.set_defaults(func=action)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    # exact answers may have any number of digits; literals are bounded by
    # fields.parse_integer instead
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args.func(args)
    except (ParseError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StreamCalcError, ZeroDivisionError, MemoryError) as exc:
        print(f"error: {'out of memory' if isinstance(exc, MemoryError) else exc}", file=sys.stderr)
        return 1
    finally:
        sys.set_int_max_str_digits(digit_limit)
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
