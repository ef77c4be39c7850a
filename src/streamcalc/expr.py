"""The stream-expression language: parsing, printing and evaluation.

Grammar (hand-written recursive descent, LL(1) after precedence layering)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' INT)?
    atom   := SCALAR | 'X' | '(' expr ')'

Precedence is ``^`` above unary ``-`` above ``*``/``/`` above binary
``+``/``-``; binary operators associate to the left.  A ``/`` directly
between two integer literals with no whitespace lexes as one scalar literal
(``3/4``); everywhere else ``/`` is stream division.  A unary minus folds
into the scalar literal written right after it (``-3``, ``-3*X``), not into
``-(3)``, ``--3`` or ``-3^2``; the printer parenthesizes a scalar under
``Neg``, so printing and reparsing are inverse.  Multiplicative inverse has
no syntax and no node of its own: ``1/e`` is ``Div``.

One table, ``_FORMS``, gives each compound node's precedence, rendering and
meaning.  The parser's levels, ``_INFIX``, are read from it, and ``to_text``
and ``evaluate`` are two ``combine`` functions over one post-order ``_fold``.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from dataclasses import dataclass
from typing import List, Tuple, Union

from .errors import FormatError, ParseError
from .fields import QQ, Field, is_ascii_digits, parse_integer
from .ratstream import RationalStream


@dataclass(frozen=True)
class Scalar:
    value: object


@dataclass(frozen=True)
class VarX:
    pass


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Div:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: int

    def __post_init__(self):
        if self.exponent < 0:
            raise ValueError("power exponent must be a nonnegative literal")


Expr = Union[Scalar, VarX, Neg, Add, Sub, Mul, Div, Pow]

# Binding strength, from binary +/- up to an atom.
_ADD, _MUL, _NEG, _POW, _ATOM = 1, 2, 3, 4, 5

# Per compound node: its precedence, the template joining its rendered
# children, per child the attribute and the least precedence that it shows
# without parentheses, and its meaning on the children's streams.  Pow's
# exponent is a literal, not a child: both folds append it to the results.
_Form = namedtuple("_Form", "precedence template children meaning")
_FORMS = {
    Add: _Form(_ADD, "{} + {}", (("left", _ADD), ("right", _ADD + 1)), operator.add),
    Sub: _Form(_ADD, "{} - {}", (("left", _ADD), ("right", _ADD + 1)), operator.sub),
    Mul: _Form(_MUL, "{}*{}", (("left", _MUL), ("right", _MUL + 1)), operator.mul),
    Div: _Form(_MUL, "{}/{}", (("left", _MUL), ("right", _MUL + 1)), operator.truediv),
    Neg: _Form(_NEG, "-{}", (("operand", _NEG),), operator.neg),
    Pow: _Form(_POW, "{}^{}", (("base", _ATOM),), operator.pow),
}

# The binary operator tokens and their nodes, grouped by the precedence level
# that _FORMS gives each node.
_TOKENS = {"PLUS": Add, "MINUS": Sub, "STAR": Mul, "SLASH": Div}
_INFIX = {p: {t: n for t, n in _TOKENS.items() if _FORMS[n].precedence == p} for p in (_ADD, _MUL)}

_Token = Tuple[str, object, int]  # (kind, payload, byte offset)

_SINGLE = {"+": "PLUS", "-": "MINUS", "*": "STAR", "/": "SLASH", "^": "CARET",
           "(": "LPAREN", ")": "RPAREN", "X": "X"}


def _literal(digits: str, position: int) -> int:
    try:
        return parse_integer(digits)
    except FormatError as exc:
        raise ParseError(str(exc), position) from None


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif is_ascii_digits(ch):
            start = i
            while i < n and is_ascii_digits(text[i]):
                i += 1
            numerator = _literal(text[start:i], start)
            # 'a/b' with no whitespace is one scalar literal token
            if i + 1 < n and text[i] == "/" and is_ascii_digits(text[i + 1]):
                i += 1
                den_start = i
                while i < n and is_ascii_digits(text[i]):
                    i += 1
                denominator = _literal(text[den_start:i], den_start)
                tokens.append(("RAT", (numerator, denominator), start))
            else:
                tokens.append(("INT", numerator, start))
        elif ch in _SINGLE:
            tokens.append((_SINGLE[ch], None, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("END", None, n))
    return tokens


# Deepest nesting of parentheses and unary minus that the recursive descent
# accepts; one level of parentheses costs six Python frames.
_MAX_NESTING = 100


class _Parser:
    def __init__(self, tokens: List[_Token], field: Field):
        self.tokens = tokens
        self.pos = 0
        self.field = field
        self.depth = 0

    def nested(self, parse):
        """Run ``parse`` one level below the token just read, within _MAX_NESTING."""
        if self.depth == _MAX_NESTING:
            offset = self.tokens[self.pos - 1][2]
            raise ParseError(f"expression nests deeper than {_MAX_NESTING} levels", offset)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def fail(self, message: str, expected):
        kind, _, offset = self.peek()
        raise ParseError(f"{message}, found {kind}", offset, expected)

    def parse_binary(self, level: int = _ADD) -> Expr:
        """A left-associative chain of the binary operators of precedence ``level``."""
        operators = _INFIX[level]
        node = self.parse_binary(level + 1) if level < _MUL else self.parse_unary()
        while self.peek()[0] in operators:
            node_class = operators[self.advance()[0]]
            right = self.parse_binary(level + 1) if level < _MUL else self.parse_unary()
            node = node_class(node, right)
        return node

    def parse_unary(self) -> Expr:
        if self.peek()[0] != "MINUS":
            return self.parse_power()
        self.advance()
        literal = self.peek()[0] in ("INT", "RAT")
        operand = self.nested(self.parse_unary)
        if literal and isinstance(operand, Scalar):
            return Scalar(-operand.value)  # the minus folds into the literal right after it
        return Neg(operand)

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.peek()[0] == "CARET":
            self.advance()
            if self.peek()[0] != "INT":
                self.fail("power exponent must be a nonnegative integer literal", {"INT"})
            return Pow(base, self.advance()[1])
        return base

    def parse_atom(self) -> Expr:
        kind, payload, _ = self.peek()
        if kind == "INT":
            self.advance()
            return Scalar(self.field.coerce(payload))
        if kind == "RAT":
            self.advance()
            # zero in the field: 3/0, and over GF(p) every multiple of p
            numerator, denominator = map(self.field.coerce, payload)
            if not denominator:
                raise ParseError("scalar literal with zero denominator", self.tokens[self.pos - 1][2])
            return Scalar(numerator / denominator)
        if kind == "X":
            self.advance()
            return VarX()
        if kind == "LPAREN":
            self.advance()
            node = self.nested(self.parse_binary)
            if self.peek()[0] != "RPAREN":
                self.fail("expected RPAREN", {"RPAREN"})
            self.advance()
            return node
        self.fail("expected a scalar, 'X' or '('", {"INT", "RAT", "X", "LPAREN"})


def parse(text: str, field: Field = QQ) -> Expr:
    """Parse an expression; scalar literals are built in ``field``."""
    parser = _Parser(_tokenize(text), field)
    node = parser.parse_binary()
    if parser.peek()[0] != "END":
        parser.fail("trailing input", {"END"})
    return node


def _fold(node: Expr, combine):
    """Call ``combine(n, results)`` on each node n post-order, with the results
    of n's children (none for a leaf), on an explicit stack: a long operator
    chain (a sum of thousands of terms parses left-deep) needs no recursion."""
    results: List = []
    pending: List = [node]
    while pending:
        n = pending.pop()
        if isinstance(n, _Form):  # the form of the node below, once its children are folded
            arity = len(n.children)
            children = results[-arity:]
            del results[-arity:]
            results.append(combine(pending.pop(), children))
        elif type(n) in _FORMS:
            form = _FORMS[type(n)]
            pending += (n, form)
            for name, _ in reversed(form.children):
                pending.append(getattr(n, name))
        elif isinstance(n, (Scalar, VarX)):
            results.append(combine(n, ()))
        else:
            raise TypeError(f"not an expression node: {n!r}")
    return results[0]


def to_text(node: Expr, field: Field = QQ) -> str:
    """Render an AST so that parsing the text gives the AST back: printer
    and parser are exact inverses."""

    def combine(n, rendered):  # rendered: (text, precedence) per child
        if isinstance(n, Scalar):  # a negative one renders with a leading minus
            return field.format(n.value), _NEG if field.is_negative(n.value) else _ATOM
        if isinstance(n, VarX):
            return "X", _ATOM
        form = _FORMS[type(n)]
        parts = [text if shown >= least else f"({text})"
                 for (text, shown), (_, least) in zip(rendered, form.children)]
        template = form.template
        if isinstance(n, Pow):
            parts.append(n.exponent)
        elif isinstance(n, Neg) and isinstance(n.operand, Scalar):
            parts[0] = f"({parts[0]})"  # else the minus would fold into the literal
        elif isinstance(n, Div) and is_ascii_digits(parts[0][-1] + parts[1][0]):
            template = "{} / {}"  # keep digit/digit from lexing as a scalar literal
        return template.format(*parts), form.precedence

    return _fold(node, combine)[0]


def evaluate(node: Expr, field: Field = QQ) -> RationalStream:
    """Fold an AST into a rational stream over ``field``."""
    x = RationalStream.x(field)  # streams are immutable, so every X leaf shares one

    def combine(n, operands):
        if isinstance(n, Scalar):
            return RationalStream.constant(field, field.coerce(n.value))
        if isinstance(n, VarX):
            return x
        if isinstance(n, Pow):
            operands.append(n.exponent)
        return _FORMS[type(n)].meaning(*operands)

    return _fold(node, combine)


def evaluate_text(text: str, field: Field = QQ) -> RationalStream:
    return evaluate(parse(text, field), field)
