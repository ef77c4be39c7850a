"""Exception hierarchy shared by all streamcalc modules, and ``check_count``,
the one check of a count or index that every entry point taking one makes."""

import sys


class StreamCalcError(Exception):
    """Base class for all domain errors raised by this package."""


class FieldMismatch(StreamCalcError):
    """Operands belong to different scalar fields."""


class NotInvertibleAtZero(StreamCalcError):
    """A stream whose initial value is 0 has no multiplicative inverse."""


class ZeroInitialValue(StreamCalcError):
    """Prefix-stream inversion requires a nonzero head coefficient."""


class ShapeMismatch(StreamCalcError):
    """Matrix or vector dimensions do not conform."""


class SingularMatrix(StreamCalcError):
    """Inversion of a matrix with zero determinant."""


class DimensionMismatch(StreamCalcError):
    """A conversion requires dimensions the argument does not have."""


class UnsupportedInitialVector(StreamCalcError):
    """The construction requires a standard-basis initial vector."""


class IllFormedCircuit(StreamCalcError):
    """Netlist violates well-formedness (dangling wire, combinational cycle)."""


class CountTooLarge(StreamCalcError):
    """A count of terms or steps above ``sys.maxsize``, which no loop reaches."""


def check_count(n: int, name: str) -> None:
    """Refuse a count of terms or steps, or an index, that no loop reaches: a
    negative one (ValueError), or one above ``sys.maxsize`` (CountTooLarge)."""
    if n < 0:
        raise ValueError(f"{name} must be nonnegative")
    if n > sys.maxsize:
        raise CountTooLarge(f"{name} is above {sys.maxsize}, the largest count of terms")


class InsufficientPrefix(StreamCalcError):
    """Not enough stream coefficients for the requested analysis."""


class ParseError(StreamCalcError):
    """Syntax error in the expression language, with byte offset."""

    def __init__(self, message, position, expected=()):
        self.position = position
        self.expected = frozenset(expected)
        detail = f"{message} at offset {position}"
        if self.expected:
            detail += " (expected " + ", ".join(sorted(self.expected)) + ")"
        super().__init__(detail)


class FormatError(StreamCalcError):
    """Malformed scalar, matrix, or file content; ``line`` is the 1-based file line."""

    line = None

    def at(self, line):
        """Attribute the error to file line ``line`` unless it names one already."""
        self.line = self.line or line
        return self

    def __str__(self):
        return f"line {self.line}: {self.args[0]}" if self.line else self.args[0]
