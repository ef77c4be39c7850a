"""Per-layer measurement for the traced run, taken from outside the program.

Three recorders, each used in its own pass so that one does not distort
another:

* :class:`Spans` times every call the benchmark's jobs make into a public
  streamcalc function (inclusive time, rescaled per job like the end-to-end
  figures) and sums the counts the jobs report;
* :class:`Profiler` runs one pass under ``cProfile``, and
  :func:`profile_layers` turns its table into self time per module and
  exact call counts at named functions;
* :class:`Probe` runs one pass with counting wrappers on ``RationalStream``
  for the figures that depend on arguments and results.

Self times under the profiler are inflated by its per-call cost, and more so
for code made of many small calls; compare them between two versions of the
program, not with the untraced end-to-end figures.
"""

from __future__ import annotations

import cProfile
import fractions
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Tuple

# (name, unit) of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str]] = [
    ("fields.self_s", "s"),
    ("fields.scalar_calls", "count"),
    ("fields.inv_calls", "count"),
    ("poly.self_s", "s"),
    ("poly.gcd_calls", "count"),
    ("poly.divmod_calls", "count"),
    ("poly.mul_calls", "count"),
    ("ratstream.self_s", "s"),
    ("ratstream.constructions", "count"),
    ("ratstream.derivative_calls", "count"),
    ("ratstream.expand_terms", "count"),
    ("ratstream.max_coeff_bits", "bits"),
    ("prefix.self_s", "s"),
    ("prefix.producer_calls", "count"),
    ("matrix.self_s", "s"),
    ("matrix.eliminate_calls", "count"),
    ("matrix.kx_solve_s", "s"),
    ("matrix.apply_calls", "count"),
    ("linear_system.realize_s", "s"),
    ("linear_system.behaviour_s", "s"),
    ("linear_system.step_outputs_s", "s"),
    ("linear_system.minimize_s", "s"),
    ("linear_system.text_s", "s"),
    ("linear_system.state_dim", "count"),
    ("circuit.behaviour_s", "s"),
    ("circuit.simulate_s", "s"),
    ("circuit.text_s", "s"),
    ("circuit.gate_evals", "count"),
    ("automaton.behaviour_s", "s"),
    ("automaton.path_sum_s", "s"),
    ("automaton.text_s", "s"),
    ("analysis.hankel_rank_s", "s"),
    ("analysis.probe_s", "s"),
    ("analysis.fit_recurrence_s", "s"),
    ("analysis.fit_recurrence_solves", "count"),
    ("analysis.first_difference_s", "s"),
    ("expr.evaluate_s", "s"),
]

# Span-timed metrics: the spans (named in workloads.py) each one sums.
SPAN_METRICS: Dict[str, Tuple[str, ...]] = {
    "matrix.kx_solve_s": ("matrix.resolvent_streams",),
    "linear_system.realize_s": ("linear_system.realize",),
    "linear_system.behaviour_s": ("linear_system.behaviour",),
    "linear_system.step_outputs_s": ("linear_system.step_outputs",),
    "linear_system.minimize_s": ("linear_system.minimize",),
    "linear_system.text_s": ("linear_system.format_system", "linear_system.parse_system"),
    "circuit.behaviour_s": ("circuit.behaviour",),
    "circuit.simulate_s": ("circuit.simulate",),
    "circuit.text_s": ("circuit.format_canonical", "circuit.parse_canonical"),
    "automaton.behaviour_s": ("automaton.behaviour",),
    "automaton.path_sum_s": ("automaton.path_sum",),
    "automaton.text_s": ("automaton.format_automaton", "automaton.parse_automaton"),
    "analysis.hankel_rank_s": ("analysis.hankel_rank",),
    "analysis.probe_s": ("analysis.nonrationality_probe",),
    "analysis.fit_recurrence_s": ("analysis.fit_recurrence",),
    "analysis.first_difference_s": ("analysis.first_difference",),
    "expr.evaluate_s": ("expr.evaluate",),
}
# Counts the jobs report themselves through ``sp.count``.
SPAN_COUNTS = ("linear_system.state_dim", "circuit.gate_evals")


class NoTrace:
    """The span recorder of timed runs: calls straight through."""

    def __call__(self, name, fn, *args):
        return fn(*args)

    def count(self, name, value):
        pass


NO_TRACE = NoTrace()


class Spans:
    """Inclusive time per span name and summed counts, rescaled job by job."""

    def __init__(self):
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self._pending: List[Tuple[str, float]] = []

    def __call__(self, name, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self._pending.append((name, time.perf_counter() - t0))

    def count(self, name, value):
        self.counts[name] += value

    @contextmanager
    def around(self, sc, module: str, name: str):
        """Also time every call of ``module.name``, wherever streamcalc binds it."""
        original = getattr(getattr(sc, module), name)
        span = f"{module}.{name}"

        def timed(*args):
            return self(span, original, *args)

        bound = [
            m for key, m in list(sys.modules.items())
            if key.split(".")[0] == "streamcalc" and getattr(m, name, None) is original
        ]
        for m in bound:
            setattr(m, name, timed)
        try:
            yield
        finally:
            for m in bound:
                setattr(m, name, original)

    def settle(self, scale: float):
        """Book the spans of the job just run, rescaled by the job's factor."""
        for name, seconds in self._pending:
            self.seconds[name] += seconds * scale
            self.calls[name] += 1
        self._pending.clear()


# --- the profiled pass ---------------------------------------------------

Key = Tuple[str, int, str]


def _key(obj) -> Optional[Key]:
    code = getattr(obj, "__code__", None)
    if code is None:
        return None
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _lookup(root, path: str):
    obj = root
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def layer_of(filename: str) -> Optional[str]:
    """The layer a source file belongs to; None for code of no layer."""
    path = Path(filename)
    if path.parent.name == "streamcalc":
        return path.stem
    if path.name == "fractions.py":
        return "fields"  # Q scalars are stdlib Fractions
    if path.parent.name == "perfbench":
        return "bench"
    return None


def _layer_shares(stats) -> Dict[Key, Dict[str, float]]:
    """For each profiled function, the share of its self time each layer owns.

    Functions of a layer own their own time.  Built-ins and library code
    outside every layer (``abc``, generated dataclass methods) pass their
    time to their callers, in proportion to the time spent under each caller.
    """
    shares: Dict[Key, Dict[str, float]] = {}

    def resolve(key: Key, depth: int) -> Dict[str, float]:
        if key in shares:
            return shares[key]
        layer = layer_of(key[0])
        if layer is not None:
            shares[key] = {layer: 1.0}
            return shares[key]
        callers = stats[key][4] if key in stats else {}
        total = sum(entry[2] for entry in callers.values())
        out: Dict[str, float] = defaultdict(float)
        if depth > 6 or total <= 0:
            out["other"] = 1.0
        else:
            for caller, entry in callers.items():
                for name, share in resolve(caller, depth + 1).items():
                    out[name] += share * entry[2] / total
        shares[key] = dict(out)
        return shares[key]

    for key in stats:
        resolve(key, 0)
    return shares


def profile_layers(sc, stats, scale: float) -> Dict[str, float]:
    """Self seconds per layer and the profiler-based counts, from one pass."""
    out: Dict[str, float] = defaultdict(float)
    for key, share in _layer_shares(stats).items():
        self_time = stats[key][2]
        for layer, part in share.items():
            out[f"self_s.{layer}"] += self_time * part * scale

    def calls(path: str) -> int:
        key = _key(_lookup(sc, path))
        return stats[key][1] if key in stats else 0

    scalar_calls = sum(
        entry[1] for key, entry in stats.items() if layer_of(key[0]) == "fields"
    )
    at_key = _key(_lookup(sc, "StreamPrefix.at"))
    producer_calls = sum(
        entry[4][at_key][0] for entry in stats.values() if at_key in entry[4]
    )
    solve_key = _key(_lookup(sc, "matrix.solve"))
    fit_key = _key(_lookup(sc, "analysis.fit_recurrence"))
    solves = stats[solve_key][4].get(fit_key, (0,))[0] if solve_key in stats else 0
    fraction_div = _key(getattr(fractions.Fraction, "_div", None))

    out.update(
        {
            "fields.scalar_calls": scalar_calls,
            "fields.inv_calls": calls("fields._invmod")
            + (stats[fraction_div][1] if fraction_div in stats else 0),
            "poly.gcd_calls": calls("Polynomial.gcd"),
            "poly.divmod_calls": calls("Polynomial.__divmod__"),
            "poly.mul_calls": calls("Polynomial.__mul__"),
            "ratstream.constructions": calls("RationalStream.__init__"),
            "ratstream.derivative_calls": calls("RationalStream.derivative"),
            "prefix.producer_calls": producer_calls,
            "matrix.eliminate_calls": calls("matrix._eliminate"),
            "matrix.apply_calls": calls("Matrix.apply"),
            "analysis.fit_recurrence_solves": solves,
        }
    )
    for layer in ("fields", "poly", "ratstream", "prefix", "matrix"):
        out[f"{layer}.self_s"] = out.get(f"self_s.{layer}", 0.0)
    return dict(out)


class Profiler:
    """A cProfile profile switched on only while a job runs."""

    def __init__(self):
        self.profile = cProfile.Profile()

    def wrap(self, run):
        def profiled(sp):
            self.profile.enable()
            try:
                return run(sp)
            finally:
                self.profile.disable()

        return profiled

    def stats(self):
        self.profile.create_stats()
        return self.profile.stats


# --- the probe pass ------------------------------------------------------


def _bits(c) -> int:
    v = getattr(c, "value", c)
    if isinstance(v, fractions.Fraction):
        return max(abs(v.numerator).bit_length(), v.denominator.bit_length())
    if isinstance(v, int):
        return abs(v).bit_length()
    return 0


class Probe:
    """Counting wrappers on RationalStream, installed for one pass only.

    ``expand_terms`` sums the ``n`` of every ``expand(n)`` call, including
    the ones ``coefficient`` makes; ``max_coeff_bits`` is the largest
    numerator or denominator bit length of any Q coefficient passed to or
    kept by the ``RationalStream`` constructor or returned by ``expand``
    (GF(p) ones never exceed p).
    """

    def __init__(self, sc):
        self.cls = sc.RationalStream
        self.rationals = sc.QQ
        self.expand_terms = 0
        self.max_coeff_bits = 0

    def __enter__(self):
        cls, probe, rationals = self.cls, self, self.rationals
        self._saved = (cls.expand, cls.__init__)
        expand, init = self._saved

        def counted_expand(stream, n):
            probe.expand_terms += n
            out = expand(stream, n)
            if stream.num.field == rationals:
                probe.see(out)
            return out

        def measured_init(stream, num, den):
            init(stream, num, den)
            if stream.num.field == rationals:
                for poly in (num, den, stream.num, stream.den):
                    probe.see(poly.coeffs)

        cls.expand, cls.__init__ = counted_expand, measured_init
        return self

    def see(self, coeffs):
        self.max_coeff_bits = max(self.max_coeff_bits, max(map(_bits, coeffs), default=0))

    def __exit__(self, *exc):
        self.cls.expand, self.cls.__init__ = self._saved
        return False
