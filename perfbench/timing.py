"""Kernel-normalised timing.

The reference host's speed swings by up to 2x within seconds, and process
CPU time swings with it.  So every measured span is timed right beside a small
reference kernel that uses only the standard library, and is reported
rescaled to the kernel's nominal speed: ``raw * KERNEL_NOMINAL_S / kernel``,
where ``kernel`` is the mean of the kernel times measured just before and
just after the span.  The unit stays seconds; a later change to streamcalc
moves the rescaled figure, a change in the host's speed does not.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction
from typing import Callable, List, Tuple

# The kernel's nominal time: a round figure inside the range of kernel medians
# seen on the reference host (2 vCPUs, CPython 3.11.7: 1.1-2.1 ms, less in its
# fast state); see perfbench/README.md.  A constant: changing it rescales
# every reported time.
KERNEL_NOMINAL_S = 0.0010

_K_FRACTIONS = tuple(Fraction(a, b) for a, b in ((1, 3), (-2, 5), (7, 4), (5, -6), (3, 7)))
_K_MATRIX = tuple(
    tuple(Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + j) % 3) for j in range(7)) for i in range(6)
)
_K_PRIME = (1 << 61) - 1


class _Residue:
    """A residue with operator methods, like the program's GF(p) scalars."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v % _K_PRIME

    def __add__(self, other):
        return _Residue(self.v + other.v)

    def __mul__(self, other):
        return _Residue(self.v * other.v)


def kernel() -> object:
    """Fixed stdlib work like the program's: Fraction sums of products,
    Gauss-Jordan elimination over Fractions, and residue objects; no streamcalc."""
    acc = Fraction(0)
    for _ in range(3):
        for a in _K_FRACTIONS:
            for b in _K_FRACTIONS:
                acc = acc * b + a
                if acc.denominator > 1 << 64:
                    acc = Fraction(acc.numerator % 1000, 7)
    rows = [list(r) for r in _K_MATRIX]
    for col in range(len(rows)):
        pivot = next(r for r in range(col, len(rows)) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = rows[col][col]
        rows[col] = [e / inv for e in rows[col]]
        for r in range(len(rows)):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    r = _Residue(3)
    step = _Residue(0x9E3779B97F4A7C15)
    for _ in range(150):
        r = r * step + step
    return acc, rows[0][-1], r.v


def kernel_time() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Meter:
    """Times calls beside the kernel; one kernel run between consecutive calls."""

    def __init__(self):
        self.kernel_samples: List[float] = []
        self._last = self._kernel()

    def _kernel(self) -> float:
        k = kernel_time()
        self.kernel_samples.append(k)
        return k

    def time(self, fn: Callable, *args) -> Tuple[object, float, float]:
        """Run fn(*args); return (result, raw seconds, rescaled seconds)."""
        t0 = time.perf_counter()
        out = fn(*args)
        raw = time.perf_counter() - t0
        after = self._kernel()
        scale = KERNEL_NOMINAL_S / ((self._last + after) / 2)
        self._last = after
        return out, raw, raw * scale

    def scale(self, since: int = 0) -> float:
        """The rescaling factor of the median kernel run from index ``since`` on."""
        return KERNEL_NOMINAL_S / statistics.median(self.kernel_samples[since:])
