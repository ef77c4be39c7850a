"""Zero, empty and short operands take each operation's one general path,
and subtraction is addition of the negation.

The exact results, type and field included, over Q, GF(2), GF(101) and
GF(2^61 - 1): a product with a zero operand is the zero of its type (for a
quotient the canonical 0/1, denominator 1), a sum with a zero quotient is
the other operand, zero divided by a quotient is 0/1, a dividend of lower
degree gives the quotient 0 and itself as the remainder, and a - b is
a + (-b), which equals the coefficientwise difference.

Three guards read the source: the package exports exactly the names its
``__init__`` imports, the one "must be nonnegative" ``ValueError`` is
raised in ``errors.check_count``, the one count check, and each field
kernel that runs alike over Q and GF(p) is one ``Field`` method.
"""

import ast
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

import streamcalc
from streamcalc import (
    NotInvertibleAtZero,
    Polynomial,
    PrimeField,
    QQ,
    RationalFunction,
    RationalStream,
    StreamPrefix,
)

FIELDS = [QQ, PrimeField(2), PrimeField(101), PrimeField(2**61 - 1)]
KINDS = [RationalFunction, RationalStream]
INTEGERS = st.integers(-9, 9) | st.integers(-(2**70), 2**70)


def same(x, y) -> bool:
    """Equal values of one type over one field."""
    return type(x) is type(y) and x.field == y.field and x == y


def polynomials(field, min_deg=-1, max_deg=4):
    """A polynomial of degree min_deg..max_deg, its top coefficient made 1
    where the field made it 0."""
    def build(coeffs):
        coeffs = [field.coerce(c) for c in coeffs]
        if coeffs and not coeffs[-1]:
            coeffs[-1] = field.one()
        return Polynomial(field, coeffs)

    return st.lists(INTEGERS, min_size=min_deg + 1, max_size=max_deg + 1).map(build)


@st.composite
def quotients(draw, kind, field):
    """Zero, a constant, a polynomial over 1 or a general quotient of ``kind``."""
    shape = draw(st.sampled_from(["zero", "constant", "polynomial", "quotient"]))
    if shape == "zero":
        return kind.zero(field)
    if shape == "constant":
        return kind.constant(field, draw(INTEGERS))
    num = draw(polynomials(field))
    if shape == "polynomial":
        return kind.from_polynomial(num)
    try:
        return kind(num, draw(polynomials(field)))
    except (ZeroDivisionError, NotInvertibleAtZero):
        return kind.from_polynomial(num)


@given(st.data(), st.sampled_from(FIELDS))
def test_polynomial_zero_short_and_difference(data, field):
    a, b = data.draw(polynomials(field)), data.draw(polynomials(field))
    zero = Polynomial.zero(field)
    assert same(a * zero, zero) and same(zero * a, zero)
    longer = data.draw(polynomials(field, min_deg=a.degree + 1, max_deg=a.degree + 4))
    quotient, remainder = divmod(a, longer)
    assert same(quotient, zero) and same(remainder, a)
    difference = [a.coefficient(i) - b.coefficient(i) for i in range(max(len(a.coeffs), len(b.coeffs)))]
    assert same(a - b, a + -b) and same(a - b, Polynomial(field, difference))


@given(st.data(), st.sampled_from(FIELDS), st.sampled_from(KINDS))
def test_quotient_zero_operands_and_difference(data, field, kind):
    a, b = data.draw(quotients(kind, field)), data.draw(quotients(kind, field))
    zero = kind.zero(field)
    assert zero.den == Polynomial.one(field)
    assert same(zero + a, a) and same(a + zero, a)
    assert same(zero * a, zero) and same(a * zero, zero)
    if kind is RationalFunction and b or kind is RationalStream and b.num.coefficient(0):
        assert same(zero / b, zero)
    assert same(a - b, a + -b)


@given(st.data(), st.sampled_from(FIELDS))
def test_prefix_difference_is_the_coefficientwise_difference(data, field):
    a = [field.coerce(c) for c in data.draw(st.lists(INTEGERS, max_size=5))]
    b = [field.coerce(c) for c in data.draw(st.lists(INTEGERS, max_size=5))]
    x, y = StreamPrefix.from_coefficients(field, a), StreamPrefix.from_coefficients(field, b)
    padded = [(a[i] if i < len(a) else field.zero(), b[i] if i < len(b) else field.zero()) for i in range(6)]
    difference = (x - y).take(6)
    assert difference == (x + -y).take(6) == [u - v for u, v in padded]
    assert all(type(c) is type(field.zero()) for c in difference)



SRC = Path(streamcalc.__file__).resolve().parent


def test_the_package_exports_exactly_the_names_it_imports():
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(streamcalc.__all__) == sorted(imported)
    assert len(set(imported)) == len(imported)
    for name in imported:
        assert getattr(streamcalc, name) is not None, name


def _nonnegative_errors(node, where):
    """Where under ``node`` a ValueError says "must be nonnegative": the
    dotted names of the enclosing classes and functions."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        where = f"{where}.{node.name}"
    if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ValueError"
            and "must be nonnegative" in ast.unparse(node)):
        yield where
    for child in ast.iter_child_nodes(node):
        yield from _nonnegative_errors(child, where)


def test_one_count_check_says_must_be_nonnegative():
    found = [where for path in sorted(SRC.glob("*.py"))
             for where in _nonnegative_errors(ast.parse(path.read_text(encoding="utf-8")), path.stem)]
    assert found == ["errors.check_count"]


def _functions(node, where):
    """The dotted names of the functions defined under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if not isinstance(child, ast.ClassDef):
                yield f"{where}.{child.name}"
            yield from _functions(child, f"{where}.{child.name}")


def test_one_method_per_shared_field_kernel():
    """The gcd and Berlekamp-Massey are defined once, on ``Field``; no
    module defines a ``residue``, and a GF(p) element has no ``inverse`` of
    its own beside ``PrimeField.inv``."""
    functions = [name for path in sorted(SRC.glob("*.py"))
                 for name in _functions(ast.parse(path.read_text(encoding="utf-8")), path.stem)]
    kernels = [name for name in functions if name.startswith("fields.")
               and name.rsplit(".", 1)[1] in ("polynomial_gcd", "berlekamp_massey")]
    assert sorted(kernels) == ["fields.Field.berlekamp_massey", "fields.Field.polynomial_gcd"]
    assert [name for name in functions if name.rsplit(".", 1)[1] == "residue"] == []
    assert "fields.PrimeFieldElement.inverse" not in functions
