#!/usr/bin/env python3
# Deciding equivalence across representations, and probing non-rationality.
#
# Every representation denotes one rational stream, so equivalence reduces to
# comparing closed forms; the first differing coefficient is a finite
# certificate of inequality.  For raw prefixes, Hankel-matrix ranks bound the
# dimension any realization must have: a rank above d rules out every linear
# system of dimension at most d, i.e. every p/q with max(deg q, deg p + 1) <= d.

from streamcalc import (
    CanonicalCircuit,
    Matrix,
    QQ,
    WeightedAutomaton,
    equivalent,
    first_difference,
    fit_recurrence,
    hankel_rank,
    nonrationality_probe,
    realize,
)
from streamcalc.analysis import AutomatonState
from streamcalc.expr import evaluate_text

naturals = evaluate_text("1/(1-X)^2")
circuit = CanonicalCircuit(Matrix(QQ, [[0, -1], [1, 2]]), Matrix(QQ, [[1, 2]]), (1, 0))
automaton = WeightedAutomaton((1, 2), Matrix(QQ, [[0, 1], [-1, 2]]))

print("circuit == closed form       :", equivalent(circuit, naturals))
print("system  == automaton state 1 :",
      equivalent(realize([naturals]), AutomatonState(automaton, 0)))
geometric, doubled = evaluate_text("1/(1-X)"), evaluate_text("1/(1-2*X)")
print("geometric vs doubled differ at index",
      first_difference(geometric, doubled))

# Hankel ranks of a rational stream stabilize at its minimal dimension.
prefix = naturals.expand(19)
print("\nHankel ranks of the natural numbers:",
      [hankel_rank(naturals.expand(2 * m - 1), m) for m in range(1, 7)])
print("fitted recurrence:", fit_recurrence(prefix, 4))

# The indicator of the triangular numbers keeps producing independent rows,
# so no small rational form can generate it.
triangles = {k * (k + 1) // 2 for k in range(10)}
indicator = [QQ.from_int(1 if i in triangles else 0) for i in range(41)]
print("\ntriangular indicator prefix:", [int(c) for c in indicator[:20]], "...")
report = nonrationality_probe(indicator, 10)
print(report.render(), end="")
print("recurrence of order <= 8?", fit_recurrence(indicator[:20], 8))
