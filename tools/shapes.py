"""Timings of the input shapes that the benchmark's workloads do not reach.

    python3 tools/shapes.py [--tiny]

Each case runs in this process over this checkout's ``src/``; its time is
the best of 3 runs (``time.perf_counter``), in ms.  The cases:

- the quotient (1+X+X^2)^k/(1-X)^k over Q, evaluated and expanded to 3
  terms, at k = 60, 100 and 300.  Its sides are coprime, so the gcd ends at
  the one-prime certificate of ``Field.polynomial_gcd``;
- the same quotient with the factor 1+X planted on both sides, at k = 60
  and 100.  Its gcd is 1+X, so the certificate proves nothing and the gcd
  is the primitive PRS, the same loop on integers;
- ``realize`` of 1/(1-X-2X^3)^60 and (1+X)/(1-3X^2)^60 over Q, dimension 300;
- a 16-state automaton's ``behaviour``, every state read against state 0
  alone, over Q and GF(2^61-1);
- ``minimize`` of a dense system with two outputs and unobservable states,
  24 + 8 states over Q and 48 + 16 over GF(2^61-1) (3 + 2 at ``--tiny``):
  an elimination of the observability rows, which come from the integer
  orbit, and the integer dots that read the minimal system off it;
- ``berlekamp_massey`` over GF(101) on 160 recurrent prefixes (orders 3, 6,
  10 and 16; 2n and 2n - 3 terms);
- ``RationalStream.from_sequence`` on the 2n terms of a seeded closed form
  p/q with deg q = n and deg p = n - 1, at n = 64 (8 at ``--tiny``) over Q
  and GF(2^61-1): the integer Berlekamp-Massey kernel, the one reduction of
  its C and the numerator summed on the reduced denominator;
- ``Polynomial`` products a*b of two seeded polynomials of degree n, and
  powers f^(n/4) of a seeded f of degree 4 with f(0) != 0 (Miller's
  recurrence), at n = 64 and 256 (8 and 16 at ``--tiny``) over Q (each
  coefficient over a denominator in 1..9) and GF(2^61-1): the schoolbook
  product and the recurrence on the integer form;
- the powers (X^3*(1+X+X^2))^500 and (X+X^2)^3000 of ``Polynomial`` over
  GF(101), and at ``--tiny`` the powers 5 and 150.  Both split off X^v
  first; the second then takes the Frobenius split, as 150 and 3000 are
  at least 101.  Without the X^v split the first takes Miller's
  recurrence on the whole product, which ROADMAP records as slower;
- 1600 terms of 1/q over Q, for q = 1 - X/1000, 1 - X/1000 - X^2/999,
  1 - X/7 - X^2/5, 1 - X^2/4, 1 - X^2/10201, 1 - X/7 - X^2/10201 and
  COPRIME (whose taps have the primes 3, 7, 11, 13, 17, 19, 23 and 29 as
  denominators): every term is reduced by gcds with the tap scale c times
  the numerator's denominator.  The two-tap shapes share many primes of c
  with the scale, and every other term of 1/(1 - X^2/4) is zero.  10201 is
  101^2, whose root 101 only the perfect-power step of ``_tap_scale``
  finds: without it c is 10201, not 101, which ROADMAP records as slower;
- ``StreamPrefix`` a·b and a's inverse at 200 and 400 terms over Q and
  GF(2^61-1), for a = (1-X/2+X^2/3)/(1-X/7-X^2/5) and b = 1/(1-2X/3) drawn
  by ``from_rational``: the Cauchy convolution on the integer form;
- the square of ``from_coefficients`` of 1/p over the first 300 primes p, to
  300 terms over Q: the worst case for one shared denominator, which then
  holds the product of all 300 primes;
- a register looped through a chain of d multipliers over GF(2^61-1),
  simulated for t ticks, at (d, t) = (300, 200) and (100, 1000): every tick
  reduces each of the d products mod p.  A deferral of the reductions to
  every few ticks lets each product grow by 61 bits per multiplier passed,
  so these are the cases a per-field reduction budget must not lose.

``--tiny`` runs every case at a small size, to check that the tool runs.  A
reader that closes stdout early (``| head``) ends the report quietly.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
import time
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from streamcalc import (  # noqa: E402
    Copier,
    LinearSystem,
    Matrix,
    Multiplier,
    Netlist,
    PointedLinearSystem,
    Polynomial,
    PrimeField,
    QQ,
    RationalStream,
    Register,
    StreamPrefix,
    change_basis,
    is_prime,
    minimize,
    realize,
)
from streamcalc.automaton import WeightedAutomaton  # noqa: E402
from streamcalc.expr import evaluate_text  # noqa: E402

MERSENNE = PrimeField(2**61 - 1)
REPEAT = 3


def quotient(k: int, planted: bool = False) -> Callable[[], object]:
    factor = "*(1+X)" if planted else ""
    text = f"((1+X+X^2)^{k}{factor})/((1-X)^{k}{factor})"
    return lambda: evaluate_text(text, QQ).expand(3)


def automaton(field, n: int) -> WeightedAutomaton:
    rng = random.Random(n)
    weights = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    return WeightedAutomaton(tuple(rng.randint(-3, 3) for _ in range(n)), Matrix(field, weights))


def unobservable_system(field, r: int, k: int) -> PointedLinearSystem:
    """A dense pointed system of r + k states, k of them unobservable, with
    two outputs: F = [[A, 0], [B, C]] and H = [H1, 0] of seeded entries in
    -3..3, conjugated by T = L U for seeded unit triangular L and U, so that
    F, H and the initial state are dense and minimize keeps r states."""
    rng = random.Random(r + k)
    n = r + k

    def entry():
        return rng.randint(-3, 3)

    dynamics = [[entry() if i >= r or j < r else 0 for j in range(n)] for i in range(n)]
    output = [[entry() if j < r else 0 for j in range(n)] for _ in range(2)]
    lower = Matrix(field, [[entry() if j < i else int(i == j) for j in range(n)] for i in range(n)])
    upper = Matrix(field, [[entry() if j > i else int(i == j) for j in range(n)] for i in range(n)])
    pointed = PointedLinearSystem(LinearSystem(Matrix(field, dynamics), Matrix(field, output)),
                                  tuple(entry() for _ in range(n)))
    return change_basis(pointed, lower * upper)


def recurrent_prefixes(field, orders: Sequence[int], each: int) -> list:
    rng = random.Random(1)
    prefixes = []
    for n in orders:
        for _ in range(each):
            num = Polynomial(field, [rng.randrange(field.modulus) for _ in range(n)])
            den = Polynomial(field, [1] + [rng.randrange(field.modulus) for _ in range(n)])
            terms = RationalStream(num, den).expand(2 * n)
            prefixes += [terms, terms[: 2 * n - 3]]
    return prefixes


def multiplier_chain(field, d: int) -> Netlist:
    """Register r copied to the output and through multipliers m1..md back
    into itself, each by a seeded nonzero scalar."""
    rng = random.Random(d)
    gates = {"r": Register(field.one()), "c": Copier(2)}
    gates.update((f"m{i}", Multiplier(field.coerce(rng.randrange(1, field.modulus)))) for i in range(1, d + 1))
    chain = [("c", 1)] + [(f"m{i}", 0) for i in range(1, d + 1)]
    wires = [(("r", 0), ("c", 0))] + [(src, (dst, 0)) for src, (dst, _) in zip(chain, chain[1:])]
    wires.append((chain[-1], ("r", 0)))
    return Netlist(field, gates, wires, ("c", 0))


def seeded_polynomial(field, degree: int, seed: int) -> Polynomial:
    """A polynomial of ``degree`` with seeded coefficients in -9..9, each over
    a denominator in 1..9 over Q, and nonzero constant and top terms."""
    rng = random.Random(seed)
    coeffs = []
    for i in range(degree + 1):
        c = rng.choice([c for c in range(-9, 10) if c or 0 < i < degree])
        coeffs.append(field.parse(f"{c}/{rng.randint(1, 9)}") if field is QQ else field.coerce(c))
    return Polynomial(field, coeffs)


def square_prefix(coefficients: Sequence, n: int) -> list:
    a = StreamPrefix.from_coefficients(QQ, coefficients)
    return (a * a).take(n)


# (name, text) of each recurrence shape
RECURRENCES = (
    ("1/(1-X/1000)", "1/(1-X/1000)"),
    ("1/(1-X/1000-X^2/999)", "1/(1-X/1000-1/999*X^2)"),
    ("1/(1-X/7-X^2/5)", "1/(1-X/7-1/5*X^2)"),
    ("1/(1-X^2/4)", "1/(1-1/4*X^2)"),
    ("1/(1-X^2/10201)", "1/(1-1/10201*X^2)"),
    ("1/(1-X/7-X^2/10201)", "1/(1-X/7-1/10201*X^2)"),
    ("1/COPRIME", "1/(1-2/3*X+5/7*X^2-1/11*X^3+4/13*X^4-2/17*X^5+1/19*X^6-3/23*X^7+1/29*X^8)"),
)


def cases(tiny: bool) -> Iterator[Tuple[str, Callable[[], object]]]:
    """(name, run) of every case, at the small sizes for ``tiny``."""
    for k in (3, 4, 5) if tiny else (60, 100, 300):
        yield f"coprime quotient k={k} (q)", quotient(k)
    for k in (3,) if tiny else (60, 100):
        yield f"planted-factor quotient k={k} (q)", quotient(k, planted=True)
    e = 2 if tiny else 60
    first, second = evaluate_text(f"1/(1-X-2*X^3)^{e}"), evaluate_text(f"(1+X)/(1-3*X^2)^{e}")
    yield f"realize two streams, dim {5 * e} (q)", lambda: realize([first, second])
    n = 3 if tiny else 16
    for field, name in ((QQ, "q"), (MERSENNE, "gf")):
        states = automaton(field, n)
        yield f"automaton behaviour, all {n} states ({name})", lambda a=states: tuple(a.behaviour())
        yield f"automaton behaviour, state 0 of {n} ({name})", lambda a=states: a.behaviour()[0]
    for field, name, (r, k) in ((QQ, "q", (3, 2) if tiny else (24, 8)),
                                (MERSENNE, "gf", (3, 2) if tiny else (48, 16))):
        system = unobservable_system(field, r, k)
        yield f"minimize dense, {r}+{k} states ({name})", lambda s=system: minimize(s)
    gf101 = PrimeField(101)
    prefixes = recurrent_prefixes(gf101, (3,) if tiny else (3, 6, 10, 16), 2 if tiny else 20)
    yield f"berlekamp_massey, {len(prefixes)} prefixes (gf:101)", lambda: [
        gf101.berlekamp_massey(terms) for terms in prefixes
    ]
    n = 8 if tiny else 64
    for field, name in ((QQ, "q"), (MERSENNE, "gf")):
        s = RationalStream(seeded_polynomial(field, n - 1, 2 * n), seeded_polynomial(field, n, 2 * n + 1))
        yield f"from_sequence, {2 * n} terms, L={n} ({name})", lambda f=field, t=s.expand(2 * n): (
            RationalStream.from_sequence(f, t))
    for field, name in ((QQ, "q"), (MERSENNE, "gf")):
        for n in (8, 16) if tiny else (64, 256):
            a, b = seeded_polynomial(field, n, n), seeded_polynomial(field, n, n + 1)
            yield f"poly product, degree {n} ({name})", lambda a=a, b=b: a * b
            f = seeded_polynomial(field, 4, n + 2)
            yield f"poly power f^{n // 4}, degree {n} ({name})", lambda f=f, k=n // 4: f**k
    for name, coeffs, k in (("(X^3*(1+X+X^2))", (0, 0, 0, 1, 1, 1), 5 if tiny else 500),
                            ("(X+X^2)", (0, 1, 1), 150 if tiny else 3000)):
        yield f"power {name}^{k} (gf:101)", lambda f=Polynomial(gf101, coeffs), k=k: f**k
    n = 40 if tiny else 1600
    for name, text in RECURRENCES:
        yield f"expand {name}, n={n} (q)", lambda s=evaluate_text(text, QQ): s.expand(n)
    for field, name in ((QQ, "q"), (MERSENNE, "gf")):
        a, b = evaluate_text("(1-X/2+1/3*X^2)/(1-X/7-1/5*X^2)", field), evaluate_text("1/(1-2/3*X)", field)
        for n in (10, 20) if tiny else (200, 400):
            # fresh prefixes on every run: a prefix caches what it made
            yield f"prefix a*b, n={n} ({name})", lambda n=n, a=a, b=b: (
                StreamPrefix.from_rational(a) * StreamPrefix.from_rational(b)).take(n)
            yield f"prefix inverse of a, n={n} ({name})", lambda n=n, a=a: (
                StreamPrefix.from_rational(a).inverse().take(n))
    n = 12 if tiny else 300
    primes = [p for p in range(2, 2000) if is_prime(p)][:n]
    reciprocals = [QQ.parse(f"1/{p}") for p in primes]
    yield f"prefix (1/primes)^2, n={n} (q)", lambda: square_prefix(reciprocals, n)
    for d, t in ((3, 5), (2, 10)) if tiny else ((300, 200), (100, 1000)):
        chain = multiplier_chain(MERSENNE, d)
        yield f"multiplier chain d={d}, t={t} (gf)", lambda c=chain, t=t: c.simulate(t)


def best_ms(run: Callable[[], object]) -> float:
    best = float("inf")
    for _ in range(REPEAT):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return 1000 * best


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tiny", action="store_true", help="every case at a small size")
    args = parser.parse_args(argv)
    try:
        print(f"{'case':<46}{'ms':>10}   (best of {REPEAT})", flush=True)
        for name, run in cases(args.tiny):
            print(f"{name:<46}{best_ms(run):>10.2f}", flush=True)
    except BrokenPipeError:
        # the reader closed stdout (as `| head` does); the interpreter flushes
        # it again on exit, so point it at devnull to end without a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0


if __name__ == "__main__":
    sys.exit(main())
