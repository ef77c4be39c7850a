"""Each library check that no other test reaches raises its exception class
with its message: one row per check, by module."""

import re

import pytest

from streamcalc import (
    QQ,
    CanonicalCircuit,
    DimensionMismatch,
    FieldMismatch,
    FractionField,
    IllFormedCircuit,
    LinearSystem,
    Matrix,
    Multiplier,
    Netlist,
    PointedLinearSystem,
    Polynomial,
    PrimeField,
    RationalFunction,
    RationalStream,
    Register,
    ShapeMismatch,
    StreamPrefix,
    WeightedAutomaton,
    change_basis,
    realize,
    resolvent,
    solve,
    states_equivalent,
    to_rational,
)
from streamcalc.expr import Pow, VarX
from streamcalc.fields import field_of

GF7 = PrimeField(7)
ONE = Matrix(QQ, [[1]])
TWO_ROWS = Matrix(QQ, [[1], [2]])
POINTED = PointedLinearSystem(LinearSystem(ONE, ONE), (1,))


def netlist(wires, output=("m2", 0)):
    """A register r1 read by the multipliers m1 and m2, driven by ``wires``."""
    gates = {"r1": Register(1), "m1": Multiplier(2), "m2": Multiplier(3)}
    return Netlist(QQ, gates, wires, output)


FEEDBACK = (("m1", 0), ("r1", 0))
CASES = [
    # linear_system
    (lambda: LinearSystem(ONE, Matrix(QQ, [[1, 2]])), ShapeMismatch, "output matrix width must match the dimension"),
    (lambda: LinearSystem(ONE, Matrix(QQ, [], cols=1)), ShapeMismatch, "at least one output row is required"),
    (lambda: LinearSystem(ONE, Matrix(GF7, [[1]])), FieldMismatch, "dynamics and output over different fields"),
    (lambda: realize([]), ShapeMismatch, "realize needs at least one stream"),
    (lambda: realize([RationalStream.one(QQ), RationalStream.one(GF7)]), FieldMismatch, "streams over different fields"),
    (lambda: states_equivalent(POINTED.system, (1,), (1, 2)), ShapeMismatch, "state vectors must match the dimension"),
    (lambda: change_basis(POINTED, Matrix(QQ, [[1, 0], [0, 1]])), ShapeMismatch,
     "basis change must be square of the system dimension"),
    # matrix
    (lambda: Matrix(QQ, [[1, 2], [3]]), ShapeMismatch, "ragged matrix rows"),
    (lambda: Matrix(QQ, [[1, 2]], cols=3), ShapeMismatch, "explicit column count disagrees with rows"),
    (lambda: solve(ONE, [1, 2]), ShapeMismatch, "right-hand side length does not match row count"),
    (lambda: resolvent(Matrix(QQ, [[1, 2]])), ShapeMismatch, "resolvent needs a square matrix"),
    (lambda: resolvent(Matrix(FractionField(QQ), [[1]])), FieldMismatch,
     "resolvent expects a matrix over the scalar field"),
    # poly
    (lambda: Polynomial.zero(QQ).leading, ZeroDivisionError, "zero polynomial has no leading coefficient"),
    (lambda: Polynomial.x(QQ) ** -1, ValueError, "negative polynomial power"),
    (lambda: RationalStream(Polynomial.one(QQ), Polynomial.one(GF7)), FieldMismatch,
     "numerator and denominator over different fields"),
    (lambda: FractionField(QQ).coerce(RationalFunction.one(GF7)), FieldMismatch,
     "rational function over the wrong base field"),
    (lambda: FractionField(QQ).coerce(Polynomial.one(GF7)), FieldMismatch, "polynomial over the wrong base field"),
    # automaton
    (lambda: WeightedAutomaton((1,), Matrix(QQ, [[1, 2]])), ShapeMismatch, "weight matrix must be square"),
    (lambda: WeightedAutomaton((1, 2), ONE), ShapeMismatch, "output vector length must match the state count"),
    (lambda: WeightedAutomaton((1,), ONE).to_linear_system(1), ShapeMismatch, "no state with index 1"),
    # analysis
    (lambda: to_rational(PointedLinearSystem(LinearSystem(ONE, TWO_ROWS), (1,))), DimensionMismatch,
     "a stream representation needs a single-output system"),
    # circuit
    (lambda: netlist([(("r1", 1), ("m1", 0))]), IllFormedCircuit, "gate r1 has no output port 1"),
    (lambda: netlist([(("r1", 0), ("m1", 1))]), IllFormedCircuit, "gate m1 has no input port 1"),
    (lambda: netlist([FEEDBACK], output=("zz", 0)), IllFormedCircuit, "output references unknown gate zz"),
    (lambda: netlist([(("r1", 0), ("m1", 0)), (("r1", 0), ("m2", 0)), FEEDBACK]), IllFormedCircuit,
     "output port r1.out0 must feed exactly one input"),
    (lambda: CanonicalCircuit(ONE, TWO_ROWS, (1,)), DimensionMismatch, "canonical circuits have a single output"),
    # expr and ratstream
    (lambda: Pow(VarX(), -1), ValueError, "power exponent must be a nonnegative literal"),
    (lambda: RationalStream.one(QQ) ** -1, ValueError, "negative stream power; use inverse() explicitly"),
    # fields and prefix
    (lambda: field_of(3), FieldMismatch, "not a field element: 3"),
    (lambda: StreamPrefix.from_coefficients(QQ, [1]) + StreamPrefix.from_coefficients(GF7, [1]), FieldMismatch,
     "prefix streams over different fields"),
]


@pytest.mark.parametrize("make, error, message", CASES, ids=[message for _, _, message in CASES])
def test_check_raises_its_class_and_message(make, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()
