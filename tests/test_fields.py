import ast
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub, truediv
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import streamcalc
from streamcalc import (
    QQ,
    FieldMismatch,
    FormatError,
    Polynomial,
    PrimeField,
    RationalFunction,
    RationalStream,
    field_from_spec,
    is_prime,
)
from streamcalc.fields import MR_BOUND, over_one_denominator, strip_content
from util import DENOMINATORS

GF7 = PrimeField(7)
GF101 = PrimeField(101)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
gf101_elements = st.integers(min_value=0, max_value=100).map(GF101.coerce)


def test_rational_sum_example():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


def test_additive_identity():
    x = Fraction(7, 3)
    assert x + QQ.zero() == x


def test_gf7_sum_wraps():
    assert GF7.coerce(5) + GF7.coerce(4) == GF7.coerce(2)


def test_inverse_of_rational():
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)


def test_multiplicative_identity():
    x = Fraction(-5, 9)
    assert x * QQ.one() == x


def test_gf7_inverse_by_euclid():
    # 3 * 5 = 15 = 2*7 + 1
    inv = GF7.inv(GF7.coerce(3))
    assert inv == GF7.coerce(5)
    assert GF7.coerce(3) * inv == GF7.one()


def test_inversion_of_zero_fails():
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))
    with pytest.raises(ZeroDivisionError):
        GF7.inv(GF7.zero())


def test_negative_power_of_a_residue_inverts():
    # 3^-1 = 5 and 5^2 = 25 = 4 mod 7
    three = GF7.coerce(3)
    assert three ** -1 == GF7.inv(three) == GF7.coerce(5)
    assert three ** -2 == GF7.coerce(4) and three ** -2 * three ** 2 == GF7.one()
    with pytest.raises(ZeroDivisionError):
        GF7.zero() ** -1


def test_rationals_stay_in_lowest_terms():
    x = Fraction(4, 8) + Fraction(1, 2)
    assert (x.numerator, x.denominator) == (1, 1)
    y = Fraction(2, -4)
    assert y.denominator > 0 and y.numerator == -1


def test_prime_field_rejects_composite_modulus():
    with pytest.raises(FormatError):
        PrimeField(91)  # 7 * 13


# psi_12 and psi_13: the least strong pseudoprimes to the first 12 and 13
# prime bases, beyond which fixed-base Miller-Rabin certifies nothing
PSI_12 = 318665857834031151167461  # 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981  # 1287836182261 * 2575672364521


def test_prime_field_rejects_uncertifiable_moduli():
    assert PSI_12 == 399165290221 * 798330580441
    assert PSI_13 == 1287836182261 * 2575672364521
    for modulus in (PSI_12, PSI_13):
        with pytest.raises(FormatError, match="cannot be certified prime"):
            PrimeField(modulus)
        with pytest.raises(FormatError, match="cannot be certified prime"):
            field_from_spec(f"gf:{modulus}")
        with pytest.raises(ValueError):
            is_prime(modulus)
    assert PrimeField(2**61 - 1).modulus == 2**61 - 1
    assert not is_prime(PSI_12 - 2)  # even, just below the bound


def test_is_prime_desk_scale():
    assert is_prime(2) and is_prime(101) and is_prime(2**31 - 1)
    assert not is_prime(1) and not is_prime(2**32 + 1)


def test_field_mismatch_detected():
    with pytest.raises(FieldMismatch):
        GF7.coerce(1) + GF101.coerce(1)
    with pytest.raises(FieldMismatch):
        GF7.coerce(1) + Fraction(1, 2)


def test_coerce_takes_an_equal_distinct_field_and_refuses_a_foreign_one():
    """``coerce`` tests a field's identity before its equality: an element of
    another PrimeField(7) object is still in GF(7), one of GF(101) is not."""
    twin = PrimeField(7)
    assert twin is not GF7 and twin == GF7
    assert GF7.coerce(twin.coerce(3)) == GF7.coerce(3)
    assert GF7.coerce(2) * twin.coerce(3) == GF7.coerce(6)
    with pytest.raises(FieldMismatch):
        GF7.coerce(GF101.coerce(3))


@pytest.mark.parametrize("op", [add, sub, mul, truediv])
def test_every_operand_enters_through_coerce(op):
    a = GF7.coerce(3)
    assert op(a, 5) == op(a, GF7.coerce(5)) == op(GF7.coerce(3), GF7.coerce(5))
    assert op(5, a) == op(GF7.coerce(5), a)
    # membership is decided by PrimeField.coerce: FieldMismatch, not TypeError
    for other in (Fraction(1, 2), 0.5, "1", None, GF101.one()):
        with pytest.raises(FieldMismatch):
            op(a, other)
        with pytest.raises(FieldMismatch):
            op(other, a)


def test_field_from_spec():
    assert field_from_spec("q") == QQ
    assert field_from_spec("gf:7") == GF7
    with pytest.raises(FormatError):
        field_from_spec("gf:10")
    with pytest.raises(FormatError):
        field_from_spec("reals")


def test_scalar_text_round_trip():
    for text in ("-12", "5/6", "0", "7"):
        assert QQ.format(QQ.parse(text)) == text
    assert GF7.parse("-3") == GF7.coerce(4)
    assert GF7.format(GF7.parse("12")) == "5"
    with pytest.raises(FormatError):
        QQ.parse("1.5")
    with pytest.raises(FormatError):
        QQ.parse("1/0")


@given(rationals, rationals, rationals)
def test_rational_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0
    if a != 0:
        assert a * QQ.inv(a) == 1


@given(gf101_elements, gf101_elements, gf101_elements)
def test_prime_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == GF101.zero()
    if a != GF101.zero():
        assert a * GF101.inv(a) == GF101.one()


def test_prime_field_element_equals_only_its_residue():
    three = GF101.coerce(3)
    assert three == 3 and three != 104 and three != -98
    assert len({three, 3}) == 1
    assert GF101.coerce(-1) == 100 and GF101.coerce(-1) != -1


@pytest.mark.parametrize("field", [QQ, PrimeField(2), GF7, GF101], ids=lambda f: f.spec())
def test_only_zero_is_falsy(field):
    # as bool(Fraction(0)) and bool(0) are False; so for k(X) and rational streams
    quotients = (RationalFunction, RationalStream)
    assert not field.zero() and field.one()
    assert all(not q.zero(field) and q.one(field) and q.x(field) for q in quotients)
    for k in range(-8, 9):
        value = field.coerce(k)
        assert bool(value) == (value != field.zero())
        for q in quotients:
            assert bool(q.constant(field, value)) == bool(value)
            over = q(Polynomial(field, [0, value]), Polynomial(field, [1, 1]))
            assert bool(over) == bool(value) == (over != q.zero(field))
    assert not GF7.coerce(14) and GF7.coerce(15) and PrimeField(2).coerce(3)


scalars = st.one_of(
    st.integers(-300, 300),
    st.integers(-300, 300).map(GF7.coerce),
    st.integers(-300, 300).map(GF101.coerce),
)


@given(scalars, scalars)
def test_equal_scalars_hash_alike(a, b):
    if a == b:
        assert hash(a) == hash(b)


def test_field_from_spec_reuses_one_field_per_modulus():
    for spec in ("gf:7", "gf:2305843009213693951", " GF:101 "):
        assert field_from_spec(spec) is field_from_spec(spec)
    assert field_from_spec("gf:007") is field_from_spec("gf:7")


def test_field_from_spec_rejects_bad_moduli_on_every_call():
    # a rejected modulus must not be cached as if it were a field
    for spec in ("gf:91", "gf:1", f"gf:{MR_BOUND}", f"gf:{PSI_13}"):
        for _ in range(3):
            with pytest.raises(FormatError):
                field_from_spec(spec)


@pytest.mark.parametrize("text", ["٣", "1/٣", "٣/2", "-٣", "１"])
def test_scalars_take_ascii_digits_only(text):
    with pytest.raises(FormatError):
        QQ.parse(text)
    if "/" not in text:
        with pytest.raises(FormatError):
            GF7.parse(text)


def test_overlong_literals_are_format_errors():
    digits = "1" * 5000
    for text in (digits, f"-{digits}", f"1/{digits}", f"{digits}/3"):
        with pytest.raises(FormatError, match="5000 digits is too long"):
            QQ.parse(text)
    with pytest.raises(FormatError, match="5000 digits is too long"):
        GF7.parse(digits)
    with pytest.raises(FormatError, match="5000 digits is too long"):
        field_from_spec(f"gf:{digits}")
    assert QQ.parse("9" * 4000) == 10**4000 - 1


big_ints = st.integers(-(10**50), 10**50)
# fractions with 40-digit denominators too
wide_fractions = rationals | st.builds(Fraction, big_ints, st.sampled_from((7, 2**70, 10**39 + 3)))


@given(st.lists(wide_fractions, max_size=8))
def test_over_one_denominator_puts_fractions_over_their_lcm(fractions):
    ints, scale = over_one_denominator(iter(fractions))
    assert scale == lcm(*(f.denominator for f in fractions))
    assert [Fraction(a, scale) for a in ints] == fractions
    assert over_one_denominator([]) == ([], 1)


@given(st.lists(big_ints, max_size=8), st.integers(0, 10**45), st.integers(1, 10**20))
def test_strip_content_keeps_values_and_leaves_no_content(ints, g, factor):
    """g > 0: every ints[i] / g is kept, and g becomes the least denominator
    of them all.  g = 0: the ints keep their ratios and signs.  ``factor``
    gives every input a large common content."""
    ints, g = [a * factor for a in ints], g * factor
    assume(g or any(ints))
    stripped, h = strip_content(ints, g)
    assert gcd(h, *stripped) == 1
    if g:
        assert [Fraction(a, h) for a in stripped] == [Fraction(a, g) for a in ints]
        assert h == lcm(*(Fraction(a, g).denominator for a in ints))
    else:
        assert h == 0
        assert all(a * y == b * x for a, x in zip(stripped, ints) for b, y in zip(stripped, ints))
        assert [(a > 0) - (a < 0) for a in stripped] == [(x > 0) - (x < 0) for x in ints]


# --- the integer form: shrink, ratios and ratio ------------------------------

GF_FIELDS = (PrimeField(2), GF101, PrimeField(2**61 - 1))


@st.composite
def integer_forms(draw, fields):
    """(field, ints, d): ints over a denominator d > 0 (over Q, one of every
    kind of ``DENOMINATORS`` times a large content shared with the ints; over
    GF(p), any int prime to p), or over d = 0, as ratios."""
    field = draw(st.sampled_from(fields))
    ints = draw(st.lists(big_ints, min_size=1, max_size=8))
    if field == QQ:
        factor = draw(st.integers(1, 10**20))
        ints = [a * factor for a in ints]
        d = factor * draw(st.sampled_from(sorted(DENOMINATORS)).flatmap(DENOMINATORS.get))
    else:
        d = draw(st.integers(1, 10**30).filter(lambda d: d % field.modulus))
    return field, ints, draw(st.sampled_from((d, 0)))


@given(integer_forms(GF_FIELDS))
def test_shrink_over_gf_keeps_the_elements_or_their_ratios(form):
    """Over Q ``shrink`` is ``strip_content``, tested above; over GF(p) it
    reduces mod p and keeps d."""
    field, ints, d = form
    k = next((i for i, a in enumerate(ints) if a % field.modulus), None)
    assume(d or k is not None)  # ratios need an element that is not zero
    shrunk, e = field.shrink(list(ints), d)
    assert e == d and all(0 <= a < field.modulus for a in shrunk)
    if d:
        assert field.ratios(shrunk, e) == field.ratios(ints, d)
    else:
        assert field.ratios(shrunk, shrunk[k]) == field.ratios(ints, ints[k])


@given(integer_forms((QQ,) + GF_FIELDS))
def test_ratio_is_one_of_ratios(form):
    field, ints, d = form
    assume(d)
    for v in ints:
        boxed = field.ratio(v, d)
        assert boxed == field.ratios([v], d)[0]
        assert type(boxed) is type(field.one())


def test_the_integer_form_over_q_is_the_module_functions():
    """No wrapper call: over Q ``shrink`` is ``strip_content`` and ``ratio``
    is ``Fraction``."""
    assert QQ.shrink is strip_content
    assert QQ.ratio is Fraction


# what only fields.py may know: the Q form's functions, the GF(p) box and the
# Q class, so that no other module picks a path by the field's class
HIDDEN = {"strip_content", "over_one_denominator", "PrimeFieldElement", "Rationals"}
# and the trusted Fraction: its slots, and a Fraction made by object.__new__
TRUSTED = {"_numerator", "_denominator", "object.__new__(Fraction)"}
PACKAGE = Path(streamcalc.__file__).parent


def is_bare_fraction(node):
    """Whether ``node`` is ``object.__new__(Fraction)`` (or of ``fractions.Fraction``)."""
    func = node.func
    return (isinstance(func, ast.Attribute) and func.attr == "__new__"
            and isinstance(func.value, ast.Name) and func.value.id == "object"
            and any(isinstance(a, ast.Name) and a.id == "Fraction"
                    or isinstance(a, ast.Attribute) and a.attr == "Fraction" for a in node.args))


def knowledge_of_the_integer_form(path):
    """The imports of ``fractions``, the HIDDEN names and the TRUSTED
    constructor in one module."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name.split(".")[0] == "fractions")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "fractions":
            found.add("fractions")
        elif isinstance(node, ast.alias):
            found.update({node.name, node.asname} & HIDDEN)
        elif isinstance(node, ast.Name) and node.id in HIDDEN:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in HIDDEN | TRUSTED:
            found.add(node.attr)
        elif isinstance(node, ast.Call) and is_bare_fraction(node):
            found.add("object.__new__(Fraction)")
    return found


def test_only_fields_py_knows_the_integer_form():
    """Every other module reaches Q and GF(p) scalars through ``Field``'s
    members (``integers``, ``shrink``, ``ratio``, ``ratios``, and
    ``characteristic`` for a zero test mod p), and makes no ``Fraction``
    past its checked constructor."""
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    assert knowledge_of_the_integer_form(PACKAGE / "fields.py") == HIDDEN | TRUSTED | {"fractions"}
    known = {str(path.relative_to(PACKAGE)): knowledge_of_the_integer_form(path) for path in modules}
    del known["fields.py"]
    assert {name: found for name, found in known.items() if found} == {}


def unused_imports(path):
    """The names that a module imports at top level and never reads."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_no_module_imports_a_name_it_never_uses():
    """No linter runs on the package, so this guard finds the import that a
    rewrite leaves behind; ``__init__.py`` imports only to re-export."""
    modules = [path for path in sorted(PACKAGE.rglob("*.py")) if path.name != "__init__.py"]
    assert len(modules) > 10
    unused = {str(path.relative_to(PACKAGE)): unused_imports(path) for path in modules}
    assert {name: found for name, found in unused.items() if found} == {}
