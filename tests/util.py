"""Shared builders for the test suite."""

import random

from hypothesis import strategies as st

from streamcalc import (
    LinearSystem,
    Matrix,
    PointedLinearSystem,
    Polynomial,
    QQ,
    StreamPrefix,
    ZeroInitialValue,
    change_basis,
    inverse,
    observability_matrix,
    rref,
    to_rational,
)
from streamcalc.automaton import WeightedAutomaton
from streamcalc.circuit import Adder, Copier, Multiplier, Register
from streamcalc.ratstream import RationalStream, valuation

# denominators of rational scalars, by kind: none, a perfect power, small
# coprime primes, 40 digits (10**39 + 3 and 10**39 + 23)
DENOMINATORS = {
    "integral": st.just(1),
    "powers": st.builds(pow, st.sampled_from((2, 3)), st.integers(0, 12)),
    "coprime": st.sampled_from((1, 3, 7, 11, 13, 29, 997)),
    "huge": st.sampled_from((1, 10**39 + 3, 10**39 + 23)),
}


def poly(field, *coeffs):
    return Polynomial(field, coeffs)


def stream(num_coeffs, den_coeffs=(1,), field=QQ):
    return RationalStream(Polynomial(field, num_coeffs), Polynomial(field, den_coeffs))


def random_stream(rng: random.Random, field=QQ, max_deg=5, bound=9, allow_zero=False):
    """Random rational stream: degrees <= max_deg, int coefficients in +-bound,
    denominator constant term 1."""
    while True:
        num = [rng.randint(-bound, bound) for _ in range(rng.randint(0, max_deg) + 1)]
        den = [1] + [rng.randint(-bound, bound) for _ in range(rng.randint(0, max_deg))]
        s = RationalStream(Polynomial(field, num), Polynomial(field, den))
        if allow_zero or s:
            return s


def random_system(rng: random.Random, field=QQ, max_dim=4, outputs=1, bound=3):
    n = rng.randint(1, max_dim)
    dynamics = Matrix(
        field, [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
    )
    output = Matrix(
        field, [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(outputs)]
    )
    initial = tuple(rng.randint(-bound, bound) for _ in range(n))
    return PointedLinearSystem(LinearSystem(dynamics, output), initial)


def random_automaton(rng: random.Random, field=QQ, max_states=4, bound=3):
    n = rng.randint(1, max_states)
    weights = Matrix(
        field, [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
    )
    outputs = tuple(rng.randint(-bound, bound) for _ in range(n))
    return WeightedAutomaton(outputs, weights)


def triangular_prefix(field, length):
    """Indicator stream of the triangular numbers k(k+1)/2."""
    triangles = set()
    k = 0
    while k * (k + 1) // 2 < length:
        triangles.add(k * (k + 1) // 2)
        k += 1
    return [field.coerce(1 if i in triangles else 0) for i in range(length)]


def boxed_berlekamp_massey(field, terms):
    """Berlekamp-Massey on field elements, one boxed operation at a time.

    The reference for the field kernels ``Field.berlekamp_massey``: same
    (C, L), computed with the field's own scalar arithmetic.
    """
    zero = field.zero()
    terms = [field.coerce(t) for t in terms]
    current = [field.one()]
    previous = [field.one()]
    length, gap, last = 0, 1, field.one()
    for n, term in enumerate(terms):
        discrepancy = term
        for i in range(1, len(current)):
            discrepancy = discrepancy + current[i] * terms[n - i]
        if discrepancy == zero:
            gap += 1
            continue
        factor = discrepancy * field.inv(last)
        updated = current + [zero] * (gap + len(previous) - len(current))
        for i, b in enumerate(previous):
            updated[i + gap] = updated[i + gap] - factor * b
        while updated[-1] == zero:
            updated.pop()
        if 2 * length <= n:
            previous, length, last, gap = current, n + 1 - length, discrepancy, 1
        else:
            gap += 1
        current = updated
    return Polynomial(field, current), length


def boxed_dot(field, xs, ys):
    """The reference for ``Field.dot``: an accumulator from the field's zero,
    one boxed addition and multiplication per pair."""
    acc = field.zero()
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


def boxed_eliminate(matrix):
    """The reference for ``matrix._eliminate``: Gauss-Jordan on the entries,
    one boxed division per pivot row entry and one boxed subtraction and
    multiplication per updated entry; returns (rows as lists, pivot columns)."""
    rows = [list(r) for r in matrix.entries]
    pivots = []
    pivot_row = 0
    for col in range(matrix.cols):
        found = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col]:
                found = r
                break
        if found is None:
            continue
        rows[pivot_row], rows[found] = rows[found], rows[pivot_row]
        inv = rows[pivot_row][col]
        pivot = rows[pivot_row] = [e / inv if e else e for e in rows[pivot_row]]
        support = [(j, b) for j, b in enumerate(pivot) if b]  # a zero b changes no entry
        for r, row in enumerate(rows):
            factor = row[col]
            if r == pivot_row or not factor:
                continue
            for j, b in support:
                row[j] = row[j] - factor * b
        pivots.append(col)
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return rows, pivots


# The boxed polynomial arithmetic: the references for ``Polynomial``, which
# runs on the field's integer form.  Each works on ``coeffs``, one field
# element at a time, and builds its answer with the checked constructor.


def _padded(p, n):
    return list(p.coeffs) + [p.field.zero()] * (n - len(p.coeffs))


def boxed_add(a, b):
    """The reference for ``Polynomial.__add__``: coefficientwise sums."""
    n = max(len(a.coeffs), len(b.coeffs))
    return Polynomial(a.field, [x + y for x, y in zip(_padded(a, n), _padded(b, n))])


def boxed_neg(a):
    """The reference for ``Polynomial.__neg__``."""
    return Polynomial(a.field, [-x for x in a.coeffs])


def boxed_mul(a, b):
    """The reference for ``Polynomial.__mul__``: the schoolbook product, one
    boxed addition and multiplication per pair of coefficients."""
    field = a.field
    out = [field.zero()] * max(len(a.coeffs) + len(b.coeffs) - 1, 0)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = out[i + j] + x * y
    return Polynomial(field, out)


def boxed_scale(a, c):
    """The reference for ``Polynomial.scale``."""
    c = a.field.coerce(c)
    return Polynomial(a.field, [c * x for x in a.coeffs])


def boxed_divmod(a, b):
    """The reference for ``Polynomial.__divmod__``: long division, each
    quotient term the remainder's top coefficient over the divisor's."""
    field = a.field
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    remainder, divisor = list(a.coeffs), list(b.coeffs)
    shift, lead = len(divisor) - 1, divisor[-1]
    quotient = [field.zero()] * max(len(remainder) - shift, 0)
    for i in range(len(remainder) - 1, shift - 1, -1):
        factor = remainder[i] / lead
        quotient[i - shift] = factor
        for j in range(shift + 1):
            remainder[i - shift + j] = remainder[i - shift + j] - factor * divisor[j]
    return Polynomial(field, quotient), Polynomial(field, remainder[:shift])


def boxed_monic(a):
    """The reference for ``Polynomial.monic``."""
    return boxed_scale(a, a.field.inv(a.coeffs[-1])) if a else a


def boxed_shifted_down(a):
    """The reference for ``Polynomial.shifted_down`` of a polynomial that X divides."""
    return Polynomial(a.field, a.coeffs[1:])


def boxed_gcd(a, b):
    """The reference for ``Polynomial.gcd``: Euclid on field elements, each
    remainder made monic, the gcd made monic at the end."""
    while b:
        a, b = b, boxed_divmod(a, b)[1]
        if b:
            b = boxed_monic(b)
    return boxed_monic(a)


def boxed_reduction(num, den, unit_index):
    """The reference for the ``Quotient`` constructor: num/den divided by
    ``boxed_gcd``, then both scaled by the inverse of den's coefficient at
    ``unit_index(den)``."""
    g = boxed_gcd(num, den)
    num, den = boxed_divmod(num, g)[0], boxed_divmod(den, g)[0]
    inverse = num.field.inv(den.coeffs[unit_index(den)])
    return boxed_scale(num, inverse), boxed_scale(den, inverse)


def boxed_expand(s, n):
    """The reference for ``RationalStream.expand``: s_i = p_i - sum_j q_j s_(i-j),
    one boxed subtraction and multiplication per term."""
    den = s.den.coeffs
    out = []
    for i in range(n):
        acc = s.num.coefficient(i)
        for j in range(1, min(i, len(den) - 1) + 1):
            acc = acc - den[j] * out[i - j]
        out.append(acc)
    return out


def boxed_product(a, b):
    """The reference for ``Matrix.__mul__``: rows of ``a`` against columns of ``b``."""
    columns = [[row[j] for row in b.entries] for j in range(b.cols)]
    rows = [[boxed_dot(a.domain, row, col) for col in columns] for row in a.entries]
    return Matrix(a.domain, rows, cols=b.cols)


def boxed_cauchy(a, b):
    """The reference for ``StreamPrefix.__mul__``: coefficient n as a boxed
    accumulator from the field's zero, one boxed addition and multiplication
    per pair a(i) b(n-i)."""

    def produce(n):
        acc = a.field.zero()
        for i in range(n + 1):
            acc = acc + a.at(i) * b.at(n - i)
        return acc

    return StreamPrefix(a.field, produce)


def boxed_prefix_inverse(a):
    """The reference for ``StreamPrefix.inverse``: b(0) = a(0)^-1 and
    b(n) = -a(0)^-1 * sum_{i=1..n} a(i) b(n-i), one boxed operation at a time."""
    if not a.at(0):
        raise ZeroInitialValue("head coefficient is 0; no inverse exists")
    head_inv = a.field.inv(a.at(0))

    def produce(n):
        if n == 0:
            return head_inv
        acc = a.field.zero()
        for i in range(1, n + 1):
            acc = acc + a.at(i) * result.at(n - i)
        return -head_inv * acc

    result = StreamPrefix(a.field, produce)
    return result


def boxed_orbit(matrix, vector, steps):
    """The reference for ``Matrix.orbit``: v, Mv, ... with one boxed mat-vec per step."""
    vec = tuple(matrix.domain.coerce(v) for v in vector)
    terms = []
    for _ in range(steps):
        terms.append(vec)
        vec = tuple(boxed_dot(matrix.domain, row, vec) for row in matrix.entries)
    return terms


def boxed_observability(system):
    """The reference for ``observability_matrix``: the blocks H F^t for t <
    dim, row i of block t step t of ``boxed_orbit`` of H's row i under F
    transposed."""
    n, transposed = system.dim, system.dynamics.transpose()
    orbits = [boxed_orbit(transposed, row, n) for row in system.output.entries]
    return Matrix(system.field, [orbit[t] for t in range(n) for orbit in orbits], cols=n)


def boxed_minimize(pointed):
    """The reference for ``minimize``: ``boxed_eliminate`` of
    ``boxed_observability``, then the new dynamics and initial state as
    ``boxed_dot``s of each reduced row with F's pivot columns and with the
    initial state, and the output at the pivot columns."""
    system, field = pointed.system, pointed.field
    reduced, pivots = boxed_eliminate(boxed_observability(system))
    r = len(pivots)
    if r == system.dim:
        return pointed
    rows = reduced[:r]
    columns = [[row[p] for row in system.dynamics.entries] for p in pivots]
    dynamics = Matrix(field, [[boxed_dot(field, row, c) for c in columns] for row in rows], cols=r)
    output = Matrix(field, [[row[p] for p in pivots] for row in system.output.entries], cols=r)
    initial = tuple(boxed_dot(field, row, pointed.initial) for row in rows)
    return PointedLinearSystem(LinearSystem(dynamics, output), initial)


def boxed_power(p, k):
    """The reference for ``Polynomial.__pow__``: k boxed schoolbook products."""
    result = Polynomial.one(p.field)
    for _ in range(k):
        result = boxed_mul(result, p)
    return result


def subtracted_first_difference(first, second):
    """The reference for ``analysis.first_difference``: the valuation of the
    difference of the two closed forms, or None when it is the zero stream."""
    index = valuation(to_rational(first) - to_rational(second))
    return None if index < 0 else index


def eliminated_standardization(pointed):
    """The reference for ``standardize_initial_state`` at a nonzero initial state
    v: the basis v, then the unit vectors at the pivot columns of (v | I) after
    ``rref``, and the conjugation by its ``inverse``."""
    field, n = pointed.field, pointed.dim
    identity = Matrix.identity(field, n).entries
    _, pivots = rref(
        Matrix(field, ((v,) + row for v, row in zip(pointed.initial, identity)), cols=n + 1)
    )
    columns = [pointed.initial] + [identity[p - 1] for p in pivots[1:]]
    return change_basis(pointed, inverse(Matrix(field, zip(*columns), cols=n)))


def full_product_minimization(pointed):
    """The reference for ``minimize``: the whole product P F of the projection P
    (the nonzero rows of the observability matrix's rref) and the dynamics F,
    then its pivot columns."""
    system, field = pointed.system, pointed.field
    reduced, pivots = rref(observability_matrix(system))
    r = len(pivots)
    if r == system.dim:
        return pointed
    projection = Matrix(field, reduced.entries[:r], cols=system.dim)
    product = projection * system.dynamics
    dynamics = Matrix(field, ((row[p] for p in pivots) for row in product.entries), cols=r)
    output = Matrix(field, ((row[p] for p in pivots) for row in system.output.entries), cols=r)
    return PointedLinearSystem(LinearSystem(dynamics, output), projection.apply(pointed.initial))


def boxed_tick(netlist, state):
    """Every output port's value in one tick from the register values
    ``state`` (by register name), gate by gate from the drivers, with one
    boxed field operation per multiplier and per adder input."""
    field = netlist.field
    drivers = {dst: src for src, dst in netlist.wires}
    values = {}

    def value(port):
        if port not in values:
            name = port[0]
            gate = netlist.gates[name]
            if isinstance(gate, Register):
                values[port] = state[name]
            elif isinstance(gate, Multiplier):
                values[port] = field.coerce(gate.factor) * value(drivers[(name, 0)])
            elif isinstance(gate, Adder):
                total = value(drivers[(name, 0)])
                for idx in range(1, gate.arity):
                    total = total + value(drivers[(name, idx)])
                values[port] = total
            else:
                assert isinstance(gate, Copier)
                values[port] = value(drivers[(name, 0)])
        return values[port]

    return value, drivers


def _registers(netlist):
    return [name for name, gate in netlist.gates.items() if isinstance(gate, Register)]


def boxed_simulate(netlist, steps):
    """The reference for ``Netlist.simulate``: the boxed tick, sampled at the
    output and latched into every register, ``steps`` times."""
    registers = _registers(netlist)
    state = {name: netlist.field.coerce(netlist.gates[name].initial) for name in registers}
    samples = []
    for _ in range(steps):
        value, drivers = boxed_tick(netlist, state)
        samples.append(value(netlist.output))
        state = {name: value(drivers[(name, 0)]) for name in registers}
    return samples


def boxed_linear_system(netlist):
    """The reference for ``Netlist.to_linear_system``: column j of F and of H
    from the boxed tick at unit register state j."""
    field, registers = netlist.field, _registers(netlist)
    zero, one = field.zero(), field.one()
    columns = []
    for unit in registers:
        value, drivers = boxed_tick(netlist, {name: one if name == unit else zero for name in registers})
        columns.append([value(drivers[(name, 0)]) for name in registers] + [value(netlist.output)])
    r = len(registers)
    dynamics = Matrix(field, ([c[i] for c in columns] for i in range(r)), cols=r)
    output = Matrix(field, [[c[r] for c in columns]], cols=r)
    initial = [field.coerce(netlist.gates[name].initial) for name in registers]
    return PointedLinearSystem(LinearSystem(dynamics, output), initial)
