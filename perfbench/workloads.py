"""The benchmark's workloads: seeded job lists, their reference results and checks.

A workload is built in three steps, so that set-up can be timed apart from
the reference side:

* ``make_specs(workload, seed)`` draws every input from the seed with
  :mod:`perfbench.refs` only (no streamcalc);
* ``expect(spec)`` computes what the program must return, again without
  streamcalc;
* ``build(sc, spec, want)`` turns a spec and its expected result into a
  :class:`Job` whose ``run`` calls into the imported streamcalc package ``sc``
  and whose ``check`` compares an output with ``want``.

Every job belongs to one field (``q`` or ``gf``) and one size class
(``small``, ``medium`` or ``large``).  ``run`` takes a span recorder ``sp``
and calls each public streamcalc function as ``sp(name, fn, *args)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional

from . import refs
from .refs import Arith

WORKLOADS = ("convert", "expand", "identify")
FIELDS = (None, refs.WORD_PRIME)
CLASSES = ("small", "medium", "large")

# State dimension (convert, expand) or linear complexity (identify) per class;
# convert's round trips go through closed forms of degree up to 9.
CONVERT_DIMS = {"small": 3, "medium": 5, "large": 6}
ROUNDTRIP_DIMS = {"small": 3, "medium": 6, "large": 9}
EXPAND_DIMS = {"small": 3, "medium": 5, "large": 8}
IDENTIFY_DIMS = {"small": 3, "medium": 7, "large": 12}
# Terms made by the expand workload's jobs, per class.
EXPAND_TERMS = {"small": 300, "medium": 800, "large": 1600}
MATVEC_STEPS = {"small": 100, "medium": 200, "large": 300}
PREFIX_TERMS = {"small": 30, "medium": 60, "large": 80}
DERIVATIVES = {"small": 50, "medium": 100, "large": 120}
POWERS = {"small": 4, "medium": 9, "large": 16}
# Independent instances of every job kind per class and field: job costs over
# Q vary from seed to seed, and more instances make the sums steady.
INSTANCES = {
    "convert": {"small": 4, "medium": 2, "large": 2},
    "expand": {"small": 3, "medium": 2, "large": 1},
    "identify": {"small": 4, "medium": 2, "large": 2},
}
# Magnitudes of the roots of q for the expand workload's streams over Q: they
# fix how fast coefficients grow, whatever the seed draws.
ROOT_MAGNITUDES = (Fraction(3, 2), Fraction(2), Fraction(1, 2), Fraction(1)) * 3


@dataclass
class Spec:
    """One job's inputs, drawn from the seed; plain data only."""

    name: str
    kind: str
    ar: Arith
    size: str
    data: Dict

    @property
    def field(self) -> str:
        return self.ar.name


@dataclass
class Job:
    name: str
    field: str
    size: str
    run: Callable
    check: Callable[[object], Optional[str]]


def plain(x):
    """A program scalar as the reference side writes it (Fraction or int)."""
    return getattr(x, "value", x)


def plain_list(xs) -> List:
    return [plain(x) for x in xs]


# --- input generation ----------------------------------------------------


def _scalar(ar: Arith, rng: random.Random, bound: int = 6):
    """A nonzero scalar: an int in [-bound, bound] over Q, any residue over GF(p)."""
    if ar.p is not None:
        return rng.randrange(1, ar.p)
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, bound))


def _entry(ar: Arith, rng: random.Random, bound: int = 3):
    """A nonzero matrix entry: an int in [-bound, bound] over Q, a residue over GF(p)."""
    if ar.p is not None:
        return rng.randrange(1, ar.p)
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, bound))


def closed_form(ar: Arith, rng: random.Random, n: int):
    """Reduced p/q with q(0) = 1, deg q = n and deg p = n - 1 (dimension n).

    Over Q every coefficient is an int except one of q's, which is a half, so
    that denominators appear in every job alike.
    """
    while True:
        p = [_scalar(ar, rng) for _ in range(n)]
        q = [ar(1)] + [_scalar(ar, rng) for _ in range(n)]
        if ar.p is None:
            q[rng.randint(1, n)] += Fraction(1, 2)
        p, q = refs.reduce_quotient(ar, p, q)
        if len(q) == n + 1 and len(p) == n:
            return p, q


def root_closed_form(ar: Arith, rng: random.Random, n: int):
    """Like closed_form, but over Q q = prod (1 - r_i X) with |r_i| fixed by n.

    The roots' magnitudes are the first n of ROOT_MAGNITUDES; their signs
    and the numerator come from the seed.
    """
    if ar.p is not None:
        return closed_form(ar, rng, n)
    while True:
        q = [ar(1)]
        for r in ROOT_MAGNITUDES[:n]:
            q = refs.poly_mul(ar, q, [ar(1), -rng.choice((-1, 1)) * r])
        p = [_scalar(ar, rng) for _ in range(n)]
        p, q = refs.reduce_quotient(ar, p, q)
        if len(q) == n + 1 and len(p) == n:
            return p, q


def poly_text(ar: Arith, coeffs) -> str:
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        negative = ar.p is None and c < 0
        magnitude = -c if negative else c
        term = str(magnitude) if i == 0 else f"{magnitude}*X" + (f"^{i}" if i > 1 else "")
        parts.append(("- " if negative else "+ ") + term)
    text = " ".join(parts) or "0"
    return text[2:] if text.startswith("+ ") else text


def quotient_text(ar: Arith, p, q) -> str:
    return f"({poly_text(ar, p)})/({poly_text(ar, q)})"


def _mix(ar: Arith, rng: random.Random, f, h, v):
    """Conjugate (F, H, v) by T = L U, L and U unit bidiagonal with random entries.

    Each factor is applied as elementary steps E = I + c e_i e_j^T:
    F -> E F E^-1, H -> H E^-1, v -> E v.  The output stream is unchanged,
    F becomes dense, and over Q the entries of T and T^-1 stay +-1 sized, so
    the cost of a job does not hang on how large a random basis change came out.
    """
    f = [list(r) for r in f]
    h, v = list(h), list(v)
    n = len(v)
    steps = [(i, i + 1) for i in range(n - 1)] + [(i + 1, i) for i in range(n - 1)]
    for i, j in steps:
        c = ar(rng.choice((-1, 1))) if ar.p is None else rng.randrange(1, ar.p)
        f[i] = [ar.add(a, ar.mul(c, b)) for a, b in zip(f[i], f[j])]
        for row in f:
            row[j] = ar.sub(row[j], ar.mul(c, row[i]))
        h[j] = ar.sub(h[j], ar.mul(c, h[i]))
        v[i] = ar.add(v[i], ar.mul(c, v[j]))
    return f, h, v


def dense_realization(ar: Arith, rng: random.Random, p, q):
    """A dense single-output system whose output stream is p/q."""
    head = refs.series(ar, p, q, len(q) - 1)
    f, h, v = refs.shift_realization(ar, q, head)
    return _mix(ar, rng, f, h, v)


def observability_det(ar: Arith, f, h):
    rows, row = [], list(h)
    for _ in range(len(f)):
        rows.append(row)
        row = [refs.mat_vec(ar, [row], [r[j] for r in f])[0] for j in range(len(f))]
    return refs.det(ar, rows)


def _convert_specs(rng: random.Random, ar: Arith, size: str, tag: str) -> List[Spec]:
    p, q = root_closed_form(ar, rng, ROUNDTRIP_DIMS[size])
    specs = [Spec(f"roundtrip{tag}", "roundtrip", ar, size,
                  {"p": p, "q": q, "text": quotient_text(ar, p, q)})]

    n = CONVERT_DIMS[size]

    f = [[_entry(ar, rng) for _ in range(n)] for _ in range(n)]
    h = [_entry(ar, rng) for _ in range(n)]
    v = [_entry(ar, rng) for _ in range(n)]
    specs.append(Spec(f"system{tag}", "system", ar, size, {"f": f, "h": h, "v": v}))

    # An observable part of dimension n plus r states that never reach the
    # output, mixed by a change of basis: minimize must find dimension n.
    r = max(2, n // 2)
    while True:
        f1 = [[_entry(ar, rng) for _ in range(n)] for _ in range(n)]
        h1 = [_entry(ar, rng) for _ in range(n)]
        if observability_det(ar, f1, h1) != 0:
            break
    f = [row + [ar(0)] * r for row in f1] + [
        [_entry(ar, rng) for _ in range(n + r)] for _ in range(r)
    ]
    h = h1 + [ar(0)] * r
    v = [_entry(ar, rng) for _ in range(n + r)]
    f, h, v = _mix(ar, rng, f, h, v)
    specs.append(Spec(f"minimize{tag}", "minimize", ar, size,
                      {"f": f, "h": h, "v": v, "dim": n}))

    for planted in (False, True):
        p, q = closed_form(ar, rng, n)
        f, h, v = dense_realization(ar, rng, p, q)
        other, index = p, None
        if planted:
            index = rng.randint(0, 2 * n)
            bump = [ar(0)] * index + [ar.mul(_scalar(ar, rng), c) for c in q]
            other = refs.poly_add(ar, p, bump)
        kind = "differ" if planted else "equal"
        specs.append(Spec(f"first_difference_{kind}{tag}", "first_difference", ar, size,
                          {"f": f, "h": h, "v": v, "p": other, "q": q, "index": index}))
    return specs


def _expand_specs(rng: random.Random, ar: Arith, size: str, tag: str) -> List[Spec]:
    n = EXPAND_DIMS[size]
    specs = []
    p, q = root_closed_form(ar, rng, n)
    specs.append(Spec(f"expand{tag}", "expand", ar, size,
                      {"p": p, "q": q, "terms": EXPAND_TERMS[size]}))

    p, q = root_closed_form(ar, rng, n)
    f, h, v = dense_realization(ar, rng, p, q)
    specs.append(Spec(f"step_outputs{tag}", "step_outputs", ar, size,
                      {"f": f, "h": h, "v": v, "p": p, "q": q, "terms": MATVEC_STEPS[size]}))

    p, q = root_closed_form(ar, rng, n)
    f, h, v = dense_realization(ar, rng, p, q)
    specs.append(Spec(f"simulate{tag}", "simulate", ar, size,
                      {"f": f, "h": h, "v": v, "p": p, "q": q, "terms": MATVEC_STEPS[size]}))

    p, q = root_closed_form(ar, rng, n)
    p2, q2 = root_closed_form(ar, rng, 2)
    specs.append(Spec(f"prefix{tag}", "prefix", ar, size,
                      {"p": p, "q": q, "p2": p2, "q2": q2, "terms": PREFIX_TERMS[size]}))

    # The shift realization read as an automaton: state 0's stream is p/q.
    p, q = root_closed_form(ar, rng, n)
    f, _, v = refs.shift_realization(ar, q, refs.series(ar, p, q, n))
    specs.append(Spec(f"path_sum{tag}", "path_sum", ar, size,
                      {"weights": f, "outputs": v, "p": p, "q": q,
                       "terms": n + 3}))

    p, q = root_closed_form(ar, rng, n)
    specs.append(Spec(f"derivative{tag}", "derivative", ar, size,
                      {"p": p, "q": q, "k": DERIVATIVES[size], "terms": 2 * n}))

    p, q = root_closed_form(ar, rng, 2)
    k = POWERS[size]
    specs.append(Spec(f"power{tag}", "power", ar, size,
                      {"p": p, "q": q, "k": k, "terms": 4 * k + 4,
                       "text": f"({quotient_text(ar, p, q)})^{k}"}))
    return specs


def _recurrent_prefix(ar: Arith, rng: random.Random, d: int, length: int):
    """A prefix of linear complexity exactly d: order-d recurrence, det H_d != 0."""
    big = 1 << 30
    while True:
        if ar.p is None:
            coeffs = [ar(rng.randint(-big, big)) for _ in range(d)]
            seq = [ar(rng.randint(-big, big)) for _ in range(d)]
        else:
            coeffs = [rng.randrange(ar.p) for _ in range(d)]
            seq = [rng.randrange(ar.p) for _ in range(d)]
        while len(seq) < length:
            t = len(seq) - d
            acc = ar(0)
            for i, c in enumerate(coeffs):
                acc = ar.add(acc, ar.mul(c, seq[t + i]))
            seq.append(acc)
        if coeffs[0] != 0 and refs.hankel_det(ar, seq, d) != 0:
            return seq


def triangular_indicator(ar: Arith, offset: int, scale, length: int):
    triangles = {k * (k + 1) // 2 for k in range(2 * length + offset + 2)}
    return [ar.mul(scale, ar(1 if i + offset in triangles else 0)) for i in range(length)]


def catalan(ar: Arith, offset: int, scale, length: int):
    c, out = 1, []
    for i in range(offset + length):
        if i >= offset:
            out.append(ar.mul(scale, ar(c)))
        c = c * 2 * (2 * i + 1) // (i + 2)
    return out


def _identify_specs(rng: random.Random, ar: Arith, size: str, tag: str) -> List[Spec]:
    d = IDENTIFY_DIMS[size]
    specs = [Spec(f"rational{tag}", "rational", ar, size,
                  {"prefix": _recurrent_prefix(ar, rng, d, 2 * d + 6), "d": d})]
    for family in (triangular_indicator, catalan):
        # offsets and scales whose Hankel matrix of size d + 1 is nonsingular,
        # so that every seed asks for the same sizes
        while True:
            offset, scale = rng.randint(0, 4), _scalar(ar, rng)
            prefix = family(ar, offset, scale, 2 * d + 3)
            if refs.hankel_det(ar, prefix, d + 1) != 0:
                break
        specs.append(Spec(f"{family.__name__}{tag}", "nonrational", ar, size,
                          {"prefix": prefix, "full": d + 1}))
    return specs


_SPEC_MAKERS = {
    "convert": _convert_specs,
    "expand": _expand_specs,
    "identify": _identify_specs,
}


def make_specs(workload: str, seed: int) -> List[Spec]:
    """The workload's fixed job list, drawn from the seed."""
    if workload not in _SPEC_MAKERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    specs = []
    for p in FIELDS:
        ar = Arith(p)
        for size in CLASSES:
            for k in range(INSTANCES[workload][size]):
                specs.extend(_SPEC_MAKERS[workload](rng, ar, size, f"/{ar.name}/{size}/{k}"))
    return specs


# --- reference results ---------------------------------------------------


def expect(spec: Spec):
    """What the program must return for this spec, computed by the references."""
    ar, d = spec.ar, spec.data
    kind = spec.kind
    if kind == "system":
        n = len(d["v"])
        return refs.output_sequence(ar, d["f"], d["h"], d["v"], 2 * n)
    if kind == "minimize":
        terms = len(d["v"]) + d["dim"]
        return refs.output_sequence(ar, d["f"], d["h"], d["v"], terms)
    if kind in ("expand", "step_outputs", "simulate", "path_sum"):
        return refs.series(ar, d["p"], d["q"], d["terms"])
    if kind == "prefix":
        a = refs.series(ar, d["p"], d["q"], d["terms"])
        b = refs.series(ar, d["p2"], d["q2"], d["terms"])
        return [ar.add(x, y) for x, y in zip(refs.convolve(ar, a, b, d["terms"]), b)]
    if kind == "derivative":
        return refs.series(ar, d["p"], d["q"], d["k"] + d["terms"])[d["k"]:]
    if kind == "power":
        num, den = refs.poly_pow(ar, d["p"], d["k"]), refs.poly_pow(ar, d["q"], d["k"])
        return refs.series(ar, num, den, d["terms"])
    return None


# --- jobs over streamcalc ------------------------------------------------


def program_field(sc, ar: Arith):
    return sc.QQ if ar.p is None else sc.PrimeField(ar.p)


def _pointed(sc, F, f, h, v):
    return sc.PointedLinearSystem(
        sc.LinearSystem(sc.Matrix(F, f), sc.Matrix(F, [h])), tuple(v)
    )


def _stream_matches(ar: Arith, s, p, q) -> Optional[str]:
    if plain_list(s.num.coeffs) != list(p) or plain_list(s.den.coeffs) != list(q):
        return f"closed form {s} differs from the reference"
    return None


def _system_lists(pointed):
    system = pointed.system
    return (
        [plain_list(r) for r in system.dynamics.entries],
        plain_list(system.output.entries[0]),
        plain_list(pointed.initial),
    )


def _agrees_on_outputs(ar: Arith, s, want) -> Optional[str]:
    """A closed form with deg num < n, deg den <= n equals H F^t v if 2n terms agree."""
    n = len(want) // 2
    num, den = plain_list(s.num.coeffs), plain_list(s.den.coeffs)
    if len(num) > n or len(den) > n + 1 or not den or den[0] != 1:
        return f"closed form {s} breaks the degree bound for dimension {n}"
    if refs.series(ar, num, den, len(want)) != want:
        return f"closed form {s} disagrees with H F^t v"
    return None


def build(sc, spec: Spec, want) -> Job:
    """The job for a spec, over the imported streamcalc package ``sc``."""
    ar, d, kind = spec.ar, spec.data, spec.kind
    F = program_field(sc, ar)
    check: Callable[[object], Optional[str]]

    if kind == "roundtrip":
        text, p, q = d["text"], d["p"], d["q"]

        def run(sp):
            s = sp("expr.evaluate", sc.evaluate_text, text, F)
            pointed = sp("linear_system.realize", sc.realize, [s])
            sp.count("linear_system.state_dim", pointed.dim)
            system_text = sp("linear_system.format_system", sc.format_system, pointed)
            pointed = sp("linear_system.parse_system", sc.parse_system, system_text)
            from_system = sp("linear_system.behaviour", pointed.behaviour)[0]
            circuit = sp("circuit.from_linear_system", sc.CanonicalCircuit.from_linear_system, pointed)
            circuit_text = sp("circuit.format_canonical", sc.format_canonical, circuit)
            circuit = sp("circuit.parse_canonical", sc.parse_canonical, circuit_text)
            from_circuit = sp("circuit.behaviour", circuit.behaviour)
            automaton = sp("automaton.from_linear_system", sc.WeightedAutomaton.from_linear_system, pointed)
            automaton_text = sp("automaton.format_automaton", sc.format_automaton, automaton)
            automaton = sp("automaton.parse_automaton", sc.parse_automaton, automaton_text)
            from_automaton = sp("automaton.behaviour", automaton.behaviour)[0]
            return s, pointed.dim, (from_system, from_circuit, from_automaton)

        def check(out):
            s, dim, closed = out
            expected_dim = max(len(p), len(q) - 1)
            if dim != expected_dim:
                return f"realize gave dimension {dim}, expected {expected_dim}"
            for stream in (s,) + closed:
                error = _stream_matches(ar, stream, p, q)
                if error:
                    return error
            return None

    elif kind == "system":
        pointed = _pointed(sc, F, d["f"], d["h"], d["v"])

        def run(sp):
            return sp("linear_system.behaviour", pointed.behaviour)[0]

        def check(out):
            return _agrees_on_outputs(ar, out, want)

    elif kind == "minimize":
        pointed = _pointed(sc, F, d["f"], d["h"], d["v"])

        def run(sp):
            reduced = sp("linear_system.minimize", sc.minimize, pointed)
            sp.count("linear_system.state_dim", reduced.dim)
            return reduced

        def check(out):
            if out.dim != d["dim"]:
                return f"minimize kept {out.dim} states, expected {d['dim']}"
            f, h, v = _system_lists(out)
            if refs.output_sequence(ar, f, h, v, len(want)) != want:
                return "minimized system changes the output stream"
            return None

    elif kind == "first_difference":
        pointed = _pointed(sc, F, d["f"], d["h"], d["v"])
        other = sc.RationalStream(sc.Polynomial(F, d["p"]), sc.Polynomial(F, d["q"]))

        def run(sp):
            return sp("analysis.first_difference", sc.first_difference, pointed, other)

        def check(out):
            if out != d["index"]:
                return f"first_difference gave {out}, expected {d['index']}"
            return None

    elif kind == "expand":
        s = sc.RationalStream(sc.Polynomial(F, d["p"]), sc.Polynomial(F, d["q"]))
        terms = d["terms"]

        def run(sp):
            return sp("ratstream.expand", s.expand, terms)

    elif kind == "step_outputs":
        pointed = _pointed(sc, F, d["f"], d["h"], d["v"])
        terms = d["terms"]

        def run(sp):
            outputs = sp("linear_system.step_outputs", pointed.step_outputs, terms)
            return [o[0] for o in outputs]

    elif kind == "simulate":
        circuit = sc.CanonicalCircuit(
            sc.Matrix(F, d["f"]), sc.Matrix(F, [d["h"]]), tuple(d["v"])
        )
        netlist = circuit.to_netlist()
        gates = sum(1 for g in netlist.gates.values() if not isinstance(g, sc.Register))
        terms = d["terms"]

        def run(sp):
            samples = sp("circuit.simulate", netlist.simulate, terms)
            sp.count("circuit.gate_evals", gates * terms)
            return samples

    elif kind == "prefix":
        s = sc.RationalStream(sc.Polynomial(F, d["p"]), sc.Polynomial(F, d["q"]))
        t = sc.RationalStream(sc.Polynomial(F, d["p2"]), sc.Polynomial(F, d["q2"]))
        terms = d["terms"]

        def run(sp):
            a = sc.StreamPrefix.from_rational(s)
            b = sc.StreamPrefix.from_rational(t)
            return sp("prefix.take", (a * b + b).take, terms)

    elif kind == "path_sum":
        automaton = sc.WeightedAutomaton(tuple(d["outputs"]), sc.Matrix(F, d["weights"]))
        terms = d["terms"]

        def run(sp):
            return [sp("automaton.path_sum", automaton.path_sum, 0, k) for k in range(terms)]

    elif kind == "derivative":
        s = sc.RationalStream(sc.Polynomial(F, d["p"]), sc.Polynomial(F, d["q"]))
        k, terms = d["k"], d["terms"]

        def run(sp):
            tail = sp("ratstream.iterated_derivative", s.iterated_derivative, k)
            return sp("ratstream.expand", tail.expand, terms)

    elif kind == "power":
        text, terms = d["text"], d["terms"]

        def run(sp):
            s = sp("expr.evaluate", sc.evaluate_text, text, F)
            return sp("ratstream.expand", s.expand, terms)

    elif kind == "rational":
        prefix = [F.coerce(x) for x in d["prefix"]]
        dim = d["d"]

        def run(sp):
            return (
                sp("analysis.hankel_rank", sc.hankel_rank, prefix, dim),
                sp("analysis.hankel_rank", sc.hankel_rank, prefix, dim + 2),
                sp("analysis.nonrationality_probe", sc.nonrationality_probe, prefix, dim - 1),
                sp("analysis.nonrationality_probe", sc.nonrationality_probe, prefix, dim),
                sp("analysis.fit_recurrence", sc.fit_recurrence, prefix, dim + 2),
            )

        def check(out):
            low, high, below, at, recurrence = out
            if (low, high) != (dim, dim):
                return f"hankel_rank gave {low}, {high}; expected {dim}"
            if below.verdict != f"NotRationalBelowBound({dim - 1})" or below.rank != dim:
                return f"probe below the dimension said {below.verdict} (rank {below.rank})"
            if at.verdict != "RationalWitnessConsistent" or at.rank != dim:
                return f"probe at the dimension said {at.verdict} (rank {at.rank})"
            if recurrence is None or len(recurrence) != dim:
                return f"fit_recurrence gave {recurrence}, expected order {dim}"
            if not refs.satisfies_recurrence(ar, d["prefix"], plain_list(recurrence)):
                return "fit_recurrence result does not reproduce the prefix"
            return None

    elif kind == "nonrational":
        prefix = [F.coerce(x) for x in d["prefix"]]
        full = d["full"]

        def run(sp):
            return (
                sp("analysis.hankel_rank", sc.hankel_rank, prefix, full),
                sp("analysis.nonrationality_probe", sc.nonrationality_probe, prefix, full - 1),
                sp("analysis.fit_recurrence", sc.fit_recurrence, prefix, full - 1),
            )

        def check(out):
            # det H_full != 0: full rank, and no recurrence of order < full fits
            rank, probe, recurrence = out
            if rank != full:
                return f"hankel_rank gave {rank}, expected full rank {full}"
            if probe.verdict != f"NotRationalBelowBound({full - 1})":
                return f"probe said {probe.verdict}, expected not rational below {full - 1}"
            if recurrence is not None:
                return f"fit_recurrence found {recurrence} where none of order < {full} exists"
            return None

    else:
        raise ValueError(f"unknown job kind {kind!r}")

    if kind in ("expand", "step_outputs", "simulate", "prefix", "path_sum", "derivative", "power"):

        def check(out):
            if plain_list(out) != want:
                return f"{kind} disagrees with the reference expansion"
            return None

    return Job(spec.name, spec.field, spec.size, run, check)
