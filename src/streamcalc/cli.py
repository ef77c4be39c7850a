"""Command-line interface.

Subcommands: eval, derive, realize, circuit synth/sim, automaton synth/eval,
equal, rank, probe, guess.  Exit codes: 0 success, 1 domain error (for
example an inversion of a stream with initial value 0, or a prefix too short
for ``guess``), 2 syntax or format error.
"""

from __future__ import annotations

import argparse
import sys
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
    InsufficientPrefix,
    ParseError,
    StreamCalcError,
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
    """Parse the file at ``path``; a format error names the file and line."""
    try:
        return parse(Path(path).read_text())
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _field(args) -> Field:
    return field_from_spec(args.field)


def _prefix_line(field: Field, values: Sequence) -> str:
    return ", ".join(field.format(v) for v in values)


def _cmd_eval(args) -> int:
    field = _field(args)
    stream = expr.evaluate_text(args.expr, field)
    print(_prefix_line(field, stream.expand(args.n)))
    print(stream)
    return 0


def _cmd_derive(args) -> int:
    field = _field(args)
    stream = expr.evaluate_text(args.expr, field)
    print(stream.iterated_derivative(args.k))
    return 0


def _cmd_realize(args) -> int:
    field = _field(args)
    streams = [expr.evaluate_text(text, field) for text in args.exprs]
    print(format_system(realize(streams)), end="")
    return 0


def _cmd_circuit_synth(args) -> int:
    field = _field(args)
    stream = expr.evaluate_text(args.expr, field)
    circuit = CanonicalCircuit.from_linear_system(at_least_one_state(realize([stream])))
    print(format_canonical(circuit), end="")
    return 0


def _cmd_circuit_sim(args) -> int:
    loaded = _read(args.file, parse_circuit_file)
    netlist = loaded if isinstance(loaded, Netlist) else loaded.to_netlist()
    print(_prefix_line(netlist.field, netlist.simulate(args.n)))
    return 0


def _cmd_automaton_synth(args) -> int:
    field = _field(args)
    stream = expr.evaluate_text(args.expr, field)
    automaton = WeightedAutomaton.from_linear_system(at_least_one_state(realize([stream])))
    print(format_automaton(automaton), end="")
    return 0


def _cmd_automaton_eval(args) -> int:
    automaton = _read(args.file, parse_automaton)
    state = _automaton_state(automaton, args.state)
    if args.method == "path":
        values = [automaton.path_sum(state, k) for k in range(args.n)]
    else:
        values = automaton.to_linear_system(state).behaviour()[0].expand(args.n)
    print(_prefix_line(automaton.field, values))
    return 0


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
        return analysis.AutomatonState(
            automaton, _automaton_state(automaton, parse_integer(state_text))
        )
    raise FormatError(f"unknown representation kind {kind!r}")


def _cmd_equal(args) -> int:
    field = _field(args)
    first = _load_representation(args.first, field)
    second = _load_representation(args.second, field)
    index = analysis.first_difference(first, second)
    if index is None:
        print("equal")
    else:
        print("not-equal")
        print(f"differs-at {index}")
    return 0


def _gather_prefix(args, needed: int, field: Field) -> List:
    if args.prefix is not None:
        return [field.parse(chunk) for chunk in args.prefix.split(",")]
    stream = expr.evaluate_text(args.expr, field)
    return stream.expand(needed)


def _cmd_rank(args) -> int:
    field = _field(args)
    prefix = _gather_prefix(args, 2 * args.m - 1 if args.m else 0, field)
    observed = analysis.hankel_rank(prefix, args.m)
    print(analysis.RankReport(len(prefix), args.m, observed).render(), end="")
    return 0


def _cmd_probe(args) -> int:
    field = _field(args)
    prefix = _gather_prefix(args, 2 * args.d + 1, field)
    print(analysis.nonrationality_probe(prefix, args.d).render(), end="")
    return 0


def _cmd_guess(args) -> int:
    field = _field(args)
    prefix = _gather_prefix(args, 0, field)
    stream = RationalStream.from_sequence(field, prefix)
    # p/q is reduced and agrees with the prefix, so its linear complexity is
    # the prefix's, L; fewer than 2L terms do not determine the stream
    length = max(stream.den.degree, stream.num.degree + 1)
    if len(prefix) < 2 * length:
        raise InsufficientPrefix(
            f"{len(prefix)} coefficients have linear complexity L = {length}; "
            f"a closed form needs at least 2L = {2 * length}"
        )
    print(stream)
    return 0


def _add_field_option(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--field",
        default="q",
        help="scalar field: q (rationals, default) or gf:<prime>",
    )


_PREFIX_HELP = "comma-separated scalars; attach a negative first one: --prefix=-1,2,0"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="streamcalc",
        description="Exact stream calculus: rational streams and their finite representations.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("eval", help="expand an expression and show its closed form")
    p.add_argument("expr")
    p.add_argument("--n", type=_count, required=True, help="number of coefficients")
    _add_field_option(p)
    p.set_defaults(func=_cmd_eval)

    p = commands.add_parser("derive", help="k-th stream derivative in closed form")
    p.add_argument("expr")
    p.add_argument("--k", type=_count, required=True, help="derivative order")
    _add_field_option(p)
    p.set_defaults(func=_cmd_derive)

    p = commands.add_parser("realize", help="minimal linear system for the streams")
    p.add_argument("exprs", nargs="+", metavar="expr")
    _add_field_option(p)
    p.set_defaults(func=_cmd_realize)

    circuit = commands.add_parser("circuit", help="stream circuit commands")
    circuit_sub = circuit.add_subparsers(dest="subcommand", required=True)
    p = circuit_sub.add_parser("synth", help="synthesize a canonical circuit")
    p.add_argument("expr")
    _add_field_option(p)
    p.set_defaults(func=_cmd_circuit_synth)
    p = circuit_sub.add_parser("sim", help="simulate a circuit file")
    p.add_argument("--file", required=True)
    p.add_argument("--n", type=_count, required=True, help="number of ticks")
    p.set_defaults(func=_cmd_circuit_sim)

    automaton = commands.add_parser("automaton", help="weighted automaton commands")
    automaton_sub = automaton.add_subparsers(dest="subcommand", required=True)
    p = automaton_sub.add_parser("synth", help="synthesize a weighted automaton")
    p.add_argument("expr")
    _add_field_option(p)
    p.set_defaults(func=_cmd_automaton_synth)
    p = automaton_sub.add_parser("eval", help="expand the stream of a state")
    p.add_argument("--file", required=True)
    p.add_argument("--state", type=_count, required=True, help="1-based state index")
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--method", choices=("path", "closed"), default="closed")
    p.set_defaults(func=_cmd_automaton_eval)

    p = commands.add_parser("equal", help="decide equality of two representations")
    p.add_argument("first", metavar="reprA")
    p.add_argument("second", metavar="reprB")
    _add_field_option(p)
    p.set_defaults(func=_cmd_equal)

    p = commands.add_parser("rank", help="Hankel rank of a coefficient prefix")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--prefix", help=_PREFIX_HELP)
    group.add_argument("--expr")
    p.add_argument("--m", type=_count, required=True, help="Hankel matrix size")
    _add_field_option(p)
    p.set_defaults(func=_cmd_rank)

    p = commands.add_parser("probe", help="rank-based non-rationality probe")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--prefix", help=_PREFIX_HELP)
    group.add_argument("--expr")
    p.add_argument("--d", type=_count, required=True, help="claimed degree bound")
    _add_field_option(p)
    p.set_defaults(func=_cmd_probe)

    p = commands.add_parser("guess", help="closed form of a coefficient prefix")
    p.add_argument("--prefix", required=True, help=_PREFIX_HELP)
    _add_field_option(p)
    p.set_defaults(func=_cmd_guess)

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
        return args.func(args)
    except (ParseError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StreamCalcError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        sys.set_int_max_str_digits(digit_limit)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
