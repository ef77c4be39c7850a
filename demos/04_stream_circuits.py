#!/usr/bin/env python3
# Stream circuits: registers with feedback compute exactly the rational streams.
#
# A canonical circuit is n registers, an n x n feedback matrix routing their
# outputs back to their inputs, and a feedforward row summing into the single
# output.  Expanding it to gates (multipliers, adders, copiers, registers)
# and simulating tick by tick agrees with the closed-form behaviour.

from collections import Counter

from streamcalc import CanonicalCircuit, Matrix, QQ, format_canonical, format_netlist

circuit = CanonicalCircuit(
    Matrix(QQ, [[0, -1], [1, 2]]),  # feedback
    Matrix(QQ, [[1, 2]]),           # feedforward
    (1, 0),                         # register seeds
)
print("compact form:")
print(format_canonical(circuit), end="")
print("closed-form behaviour:", circuit.behaviour())

netlist = circuit.to_netlist()
print("\ngate inventory:", dict(Counter(type(g).__name__ for g in netlist.gates.values())))
print("simulation, 12 ticks:", netlist.simulate(12))
print("matches expansion?  :",
      netlist.simulate(12) == circuit.behaviour().expand(12))

print("\nfull netlist:")
print(format_netlist(netlist), end="")

# A register in front of the output delays the stream by one tick.
delayed = netlist.with_output_register(QQ.coerce(9))
print("\nwith an extra output register seeded 9:", delayed.simulate(6))

# The canonical data is literally a single-output linear system.
pointed = circuit.to_linear_system()
print("as a linear system, behaviour agrees:",
      pointed.behaviour()[0] == circuit.behaviour())
