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
(``3/4``); everywhere else ``/`` is stream division.  Unary minus on a scalar
literal folds into the literal so printing and reparsing are inverse.
Multiplicative inverse has no dedicated syntax (write ``1/e``); the AST node
exists for programmatic use.
"""

from __future__ import annotations

import operator
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


@dataclass(frozen=True)
class Inv:
    operand: "Expr"


Expr = Union[Scalar, VarX, Neg, Add, Sub, Mul, Div, Pow, Inv]

_Token = Tuple[str, object, int]  # (kind, payload, byte offset)

_PUNCT = {
    "+": "PLUS",
    "-": "MINUS",
    "*": "STAR",
    "/": "SLASH",
    "^": "CARET",
    "(": "LPAREN",
    ")": "RPAREN",
}


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
            continue
        if is_ascii_digits(ch):
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
            continue
        if ch == "X":
            tokens.append(("X", None, i))
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append((_PUNCT[ch], None, i))
            i += 1
            continue
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
            raise ParseError(
                f"expression nests deeper than {_MAX_NESTING} levels",
                self.tokens[self.pos - 1][2],
            )
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

    def expect(self, kind: str) -> _Token:
        if self.peek()[0] != kind:
            self.fail(f"expected {kind}", {kind})
        return self.advance()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek()[0] in ("PLUS", "MINUS"):
            op = self.advance()[0]
            right = self.parse_term()
            node = Add(node, right) if op == "PLUS" else Sub(node, right)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while self.peek()[0] in ("STAR", "SLASH"):
            op = self.advance()[0]
            right = self.parse_unary()
            node = Mul(node, right) if op == "STAR" else Div(node, right)
        return node

    def parse_unary(self) -> Expr:
        if self.peek()[0] == "MINUS":
            self.advance()
            operand = self.nested(self.parse_unary)
            if isinstance(operand, Scalar):
                return Scalar(-operand.value)  # fold literal negation
            return Neg(operand)
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.peek()[0] == "CARET":
            self.advance()
            if self.peek()[0] != "INT":
                self.fail("power exponent must be a nonnegative integer literal", {"INT"})
            exponent = self.advance()[1]
            return Pow(base, exponent)
        return base

    def parse_atom(self) -> Expr:
        kind, payload, _ = self.peek()
        if kind == "INT":
            self.advance()
            return Scalar(self.field.from_int(payload))
        if kind == "RAT":
            self.advance()
            # zero in the field: 3/0, and over GF(p) every multiple of p
            numerator, denominator = map(self.field.from_int, payload)
            if not denominator:
                raise ParseError("scalar literal with zero denominator", self.tokens[self.pos - 1][2])
            return Scalar(numerator / denominator)
        if kind == "X":
            self.advance()
            return VarX()
        if kind == "LPAREN":
            self.advance()
            node = self.nested(self.parse_expr)
            self.expect("RPAREN")
            return node
        self.fail("expected a scalar, 'X' or '('", {"INT", "RAT", "X", "LPAREN"})


def parse(text: str, field: Field = QQ) -> Expr:
    """Parse an expression; scalar literals are built in ``field``."""
    parser = _Parser(_tokenize(text), field)
    node = parser.parse_expr()
    if parser.peek()[0] != "END":
        parser.fail("trailing input", {"END"})
    return node


_ADD_PREC, _MUL_PREC, _NEG_PREC, _POW_PREC, _ATOM_PREC = 1, 2, 3, 4, 5


def _precedence(node: Expr, field: Field) -> int:
    if isinstance(node, (Add, Sub)):
        return _ADD_PREC
    if isinstance(node, (Mul, Div, Inv)):
        return _MUL_PREC
    if isinstance(node, Neg):
        return _NEG_PREC
    if isinstance(node, Pow):
        return _POW_PREC
    if isinstance(node, Scalar) and field.is_negative(node.value):
        return _NEG_PREC  # renders with a leading minus
    return _ATOM_PREC


# Compound nodes: the template joining their rendered children, and per child
# the attribute and the least precedence that it shows without parentheses.
_SHAPES = {
    Neg: ("-{}", ("operand", _NEG_PREC)),
    Add: ("{} + {}", ("left", _ADD_PREC), ("right", _ADD_PREC + 1)),
    Sub: ("{} - {}", ("left", _ADD_PREC), ("right", _ADD_PREC + 1)),
    Mul: ("{}*{}", ("left", _MUL_PREC), ("right", _MUL_PREC + 1)),
    Div: ("{}/{}", ("left", _MUL_PREC), ("right", _MUL_PREC + 1)),
    Pow: ("{}^{}", ("base", _ATOM_PREC)),
    Inv: ("1/{}", ("operand", _MUL_PREC + 1)),
}


def to_text(node: Expr, field: Field = QQ) -> str:
    """Render an AST so that parsing the text gives the AST back.

    Like ``evaluate``, it works post-order on an explicit stack, so a long
    operator chain needs no recursion.
    """
    texts: List[str] = []
    pending: List = [node]
    while pending:
        n = pending.pop()
        if isinstance(n, tuple):  # (node,) once the node's children are rendered
            n = n[0]
            template, *slots = _SHAPES[type(n)]
            parts = texts[-len(slots):]
            del texts[-len(slots):]
            for i, (name, least) in enumerate(slots):
                if _precedence(getattr(n, name), field) < least:
                    parts[i] = f"({parts[i]})"
            if isinstance(n, Pow):
                parts.append(n.exponent)
            elif isinstance(n, Div) and is_ascii_digits(parts[0][-1] + parts[1][0]):
                template = "{} / {}"  # keep digit/digit from lexing as a scalar literal
            texts.append(template.format(*parts))
        elif isinstance(n, Scalar):
            texts.append(field.format(n.value))
        elif isinstance(n, VarX):
            texts.append("X")
        elif type(n) in _SHAPES:
            pending.append((n,))
            pending += [getattr(n, name) for name, _ in reversed(_SHAPES[type(n)][1:])]
        else:
            raise TypeError(f"not an expression node: {n!r}")
    return texts[0]


_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}


def evaluate(node: Expr, field: Field = QQ) -> RationalStream:
    """Fold an AST into a rational stream over ``field``.

    The fold runs post-order on an explicit stack, so a long operator chain
    (a sum of thousands of terms parses left-deep) needs no recursion.
    """
    values: List[RationalStream] = []
    pending: List = [node]
    while pending:
        n = pending.pop()
        if isinstance(n, tuple):  # (operation, arity) once its operands are done
            operation, arity = n
            operands = values[-arity:]
            del values[-arity:]
            values.append(operation(*operands))
        elif isinstance(n, Scalar):
            values.append(RationalStream.constant(field, field.coerce(n.value)))
        elif isinstance(n, VarX):
            values.append(RationalStream.x(field))
        elif type(n) in _BINARY:
            pending += [(_BINARY[type(n)], 2), n.right, n.left]
        elif isinstance(n, Neg):
            pending += [(operator.neg, 1), n.operand]
        elif isinstance(n, Pow):
            pending += [(lambda s, k=n.exponent: s ** k, 1), n.base]
        elif isinstance(n, Inv):
            pending += [(RationalStream.inverse, 1), n.operand]
        else:
            raise TypeError(f"not an expression node: {n!r}")
    return values[0]


def evaluate_text(text: str, field: Field = QQ) -> RationalStream:
    return evaluate(parse(text, field), field)
